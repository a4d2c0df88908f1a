// Architecture factory.
//
// Miniature counterparts of the paper's backbone families, sized for CPU
// training on 16x16 synthetic images.  The family distinctions the paper's
// cross-architecture experiments rely on are preserved:
//   ResNet18Mini        — residual 3x3 conv blocks
//   MobileNetV2Mini     — depthwise-separable blocks
//   MobileViTMini       — conv stem + spatial self-attention block
//   SwinMini            — patchify + two attention stages
//   Mlp                 — flat baseline (tests / ablations)
#pragma once

#include <memory>
#include <string>

#include "nn/model.hpp"
#include "util/rng.hpp"

namespace bprom::nn {

enum class ArchKind {
  kResNet18Mini,
  kMobileNetV2Mini,
  kMobileViTMini,
  kSwinMini,
  kMlp,
};

[[nodiscard]] std::string arch_name(ArchKind kind);

/// Build a randomly initialized model of the given family.
std::unique_ptr<Model> make_model(ArchKind kind, ImageShape input,
                                  std::size_t classes, util::Rng& rng);

/// Length of make_model(kind, input, classes, ...)->save_parameters(),
/// computed without building a layer: a loader checks a weight blob
/// against it before the model commits any memory.
[[nodiscard]] std::size_t parameter_count(ArchKind kind, ImageShape input,
                                          std::size_t classes);

}  // namespace bprom::nn
