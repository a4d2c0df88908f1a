// Prompted model: f_T = w ∘ f_S ∘ V(·|theta).
//
// The paper omits the optional output-mapping step w (Section 3).  The
// library learns a one-to-one frequency mapping instead of the identity
// (fit_frequency_label_mapping below); either way target classes map onto
// distinct source classes, which requires K_T <= K_S.  That holds for every
// dataset pairing in the evaluation.
#pragma once

#include "nn/blackbox.hpp"
#include "nn/trainer.hpp"
#include "vp/prompt.hpp"

namespace bprom::vp {

class PromptedModel {
 public:
  PromptedModel(const nn::BlackBoxModel& model, VisualPrompt prompt);

  /// Source-domain confidence vectors [N, K_S] for target images.
  [[nodiscard]] Tensor predict_proba(const Tensor& target_images) const;

  /// Target-task accuracy.  Uses the identity label mapping unless a
  /// learned output mapping has been set (see set_label_mapping).
  [[nodiscard]] double accuracy(const nn::LabeledData& target_data) const;

  /// Output label mapping w (the optional step 3 of VP/MR, §3): element t
  /// is the source class assigned to target class t.  On the synthetic
  /// substrate the identity mapping would measure alignment luck between
  /// unrelated class geometries, so the library learns a frequency-based
  /// one-to-one mapping instead.
  void set_label_mapping(std::vector<int> target_to_source);
  [[nodiscard]] const std::vector<int>& label_mapping() const {
    return mapping_;
  }

  [[nodiscard]] const VisualPrompt& prompt() const { return prompt_; }
  [[nodiscard]] const nn::BlackBoxModel& model() const { return *model_; }

 private:
  const nn::BlackBoxModel* model_;
  VisualPrompt prompt_;
  std::vector<int> mapping_;  // empty = identity
};

/// Frequency label mapping (Chen 2024): count source predictions per target
/// class on the target training set, then greedily assign each target class
/// its most frequent unassigned source class (one-to-one).  On a poisoned
/// source model several target classes compete for the same (target-attack)
/// source subspace, capping mapped accuracy — the measurable form of class
/// subspace inconsistency.  `probs` holds the prompted confidence vectors
/// [N, K_S] of the N target training images, whose labels are `labels`.
std::vector<int> fit_frequency_label_mapping(const Tensor& probs,
                                             const std::vector<int>& labels,
                                             std::size_t target_classes);

}  // namespace bprom::vp
