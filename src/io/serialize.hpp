// Typed serializers for every trained artifact, built on io::Writer/Reader.
//
// Each save_* opens a 4-char chunk tag that the matching load_* verifies,
// so mixing artifact kinds fails with IoError instead of garbage.  The
// *_file helpers wrap one artifact per .bprom container (magic + version +
// CRC); the chunk serializers compose, so composite artifacts (detectors)
// embed tensors, forests, and prompts inline.
#pragma once

#include <memory>
#include <string>

#include "core/bprom.hpp"
#include "io/binary.hpp"
#include "meta/random_forest.hpp"
#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor.hpp"
#include "vp/prompt.hpp"

namespace bprom::io {

// Chunk serializers (compose inside one payload).
void save_tensor(Writer& writer, const tensor::Tensor& t);
tensor::Tensor load_tensor(Reader& reader);

void save_labeled_data(Writer& writer, const nn::LabeledData& data);
nn::LabeledData load_labeled_data(Reader& reader);

void save_prompt(Writer& writer, const vp::VisualPrompt& prompt);
vp::VisualPrompt load_prompt(Reader& reader);

// Model / forest / detector chunk forms live as members (Model::save,
// RandomForest::save, BpromDetector::save) because they touch private
// state; the free functions below wrap them in standalone containers.

void save_model_file(const std::string& path, nn::Model& model);
std::unique_ptr<nn::Model> load_model_file(const std::string& path);

void save_detector_file(const std::string& path,
                        const core::BpromDetector& detector);
core::BpromDetector load_detector_file(const std::string& path);

/// Canonical on-disk extension for all persisted artifacts.
inline constexpr const char* kFileExtension = ".bprom";

}  // namespace bprom::io
