// Backdoor attack taxonomy and configuration.
//
// All attacks implement the paper's trigger model
//   x' = (1 - m) . x + m . ((1 - alpha) t + alpha x),   y' = y_t
// or its published sample-specific / warping / clean-label variant.
// Poison rate and cover rate follow Table 13 of the paper (cover samples
// carry the trigger but keep their original label, which is what makes the
// adaptive attacks "latent-separation-resistant").
#pragma once

#include <cstdint>
#include <string>

#include "nn/model.hpp"

namespace bprom::attacks {

enum class AttackKind {
  kBadNets,    // corner patch, dirty label (Gu et al. 2017)
  kBlend,      // full-image blended noise (Chen et al. 2017)
  kTrojan,     // high-contrast reverse-engineered patch (Liu et al. 2018)
  kWaNet,      // imperceptible elastic warp (Nguyen & Tran 2021)
  kDynamic,    // sample-specific patch position/pattern (Nguyen & Tran 2020)
  kAdapBlend,  // blended + cover samples (Qi et al. 2023)
  kAdapPatch,  // patches + cover samples (Qi et al. 2023)
  kBpp,        // quantization + dithering (Wang et al. 2022)
  kSig,        // sinusoidal stripes, clean label (Barni et al. 2019)
  kLc,         // label-consistent perturbation, clean label (Turner 2019)
  kRefool,     // reflection ghosting (Liu et al. 2020)
  kPoisonInk,  // edge-following ink, feature-space (Zhang et al. 2022)
};

[[nodiscard]] std::string attack_name(AttackKind kind);

/// Clean-label attacks only poison samples already belonging to the target
/// class and never change labels.
[[nodiscard]] bool is_clean_label(AttackKind kind);

struct AttackConfig {
  AttackKind kind = AttackKind::kBadNets;
  int target_class = 0;
  /// Fraction of the training set stamped + relabeled.
  double poison_rate = 0.02;
  /// Fraction stamped but keeping the true label (adaptive attacks).
  double cover_rate = 0.0;
  /// Patch side in pixels (patch-type attacks); full-image attacks ignore.
  std::size_t trigger_size = 4;
  /// Blend intensity alpha (the paper's trigger-model alpha).
  double alpha = 0.2;
  /// Fixes the trigger pattern itself.
  std::uint64_t seed = 7;

  /// Paper-style defaults per attack kind (Table 13 rates, scaled to the
  /// synthetic substrate's much smaller training sets).
  static AttackConfig defaults(AttackKind kind, int target_class = 0,
                               std::uint64_t seed = 7);
};

}  // namespace bprom::attacks
