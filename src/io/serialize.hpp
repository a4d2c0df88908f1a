// Typed serializers for every trained artifact, built on io::Writer/Reader.
//
// Each artifact is described once, as a field list (see io/binary.hpp) that
// both directions run: save_* encodes it, load_* decodes it and enforces
// its bounds.  Every chunk opens with a 4-char tag that the reader
// verifies, so mixing artifact kinds fails with IoError instead of garbage.
// The chunks compose: a detector (`DTCT`) embeds its D_T splits and D_Q as
// `DATA` chunks (each a `TNSR` plus labels) and its meta-forest as `FRST`
// (`TREE` per tree).  Models (`MODL`) keep a save/load pair, because the
// reader rebuilds the layer graph from the descriptor before it reads the
// weight blob.  The detector file helpers wrap one detector per .bprom
// container (magic + version + CRC).
#pragma once

#include <string>

#include "core/bprom.hpp"
#include "io/binary.hpp"
#include "nn/trainer.hpp"
#include "tensor/tensor.hpp"

namespace bprom::io {

// Chunk serializers (compose inside one payload).
void save_tensor(Writer& writer, const tensor::Tensor& t);
tensor::Tensor load_tensor(Reader& reader);

void save_labeled_data(Writer& writer, const nn::LabeledData& data);
nn::LabeledData load_labeled_data(Reader& reader);

// Model / forest / detector chunk forms live as members (Model::save,
// RandomForest::save, BpromDetector::save) because they touch private
// state; the helpers below wrap a detector in a standalone container.

void save_detector_file(const std::string& path,
                        const core::BpromDetector& detector);
core::BpromDetector load_detector_file(const std::string& path);

/// Canonical on-disk extension for all persisted artifacts.
inline constexpr const char* kFileExtension = ".bprom";

}  // namespace bprom::io
