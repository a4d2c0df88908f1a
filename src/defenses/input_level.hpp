// Input-level (inference-time) baseline defenses.
//
// Each returns one suspicion score per input (higher = more likely a trigger
// sample).  Algorithmic cores follow the published methods; sizes are tuned
// for the CPU substrate.  These are the detectors whose clean-model collapse
// Table 1 demonstrates.
#pragma once

#include <vector>

#include "nn/model.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace bprom::defenses {

using nn::LabeledData;
using nn::Tensor;

/// STRIP (Gao et al. 2019): superimpose each input with N clean images and
/// measure mean prediction entropy; trigger samples stay low-entropy because
/// the trigger survives blending.  Score = -entropy.
std::vector<double> strip_scores(nn::Model& model, const Tensor& inputs,
                                 const LabeledData& clean_reference,
                                 util::Rng& rng, std::size_t overlays = 10);

/// SentiNet (Chou et al. 2018): locate the most prediction-critical region
/// by occlusion, transplant it onto held-out images, and score by the fooled
/// fraction (universal patches transplant; benign saliency does not).
std::vector<double> sentinet_scores(nn::Model& model, const Tensor& inputs,
                                    const LabeledData& clean_reference,
                                    std::size_t occluder = 4,
                                    std::size_t transplant_targets = 8);

/// Frequency (Zeng et al. 2021): high-frequency DCT band statistic; patch
/// and blend triggers leave high-frequency residuals, warping does not
/// (which is exactly the failure mode the paper reports for WaNet).
std::vector<double> frequency_scores(const Tensor& inputs);

/// SCALE-UP (Guo et al. 2023): scaled prediction consistency — multiply
/// pixels by k = 2..5 (clipped) and count how often the prediction is
/// preserved.  Trigger samples are scale-stable.
std::vector<double> scaleup_scores(nn::Model& model, const Tensor& inputs);

/// TeCo (Liu et al. 2023): corruption-robustness consistency — for several
/// corruption families, find the severity at which the prediction first
/// flips; triggered inputs flip at very different severities per family.
/// Score = deviation of first-flip severities.
std::vector<double> teco_scores(nn::Model& model, const Tensor& inputs,
                                util::Rng& rng);

/// TED (Mo et al. 2024): topological evolution dynamics, approximated with
/// the penultimate feature space: score = rank disagreement between an
/// input's feature-space neighbours and its predicted label.
std::vector<double> ted_scores(nn::Model& model, const Tensor& inputs,
                               const LabeledData& clean_reference,
                               std::size_t k_neighbours = 10);

/// CD — Cognitive Distillation (Huang et al. 2023): minimal input mask that
/// preserves the prediction, approximated by greedy occlusion; trigger
/// samples have very small cognitive patterns.  Score = -pattern size.
std::vector<double> cd_scores(nn::Model& model, const Tensor& inputs,
                              std::size_t occluder = 4);

}  // namespace bprom::defenses
