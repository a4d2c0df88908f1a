#include "vp/prompted_model.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

namespace bprom::vp {

PromptedModel::PromptedModel(const nn::BlackBoxModel& model,
                             VisualPrompt prompt)
    : model_(&model), prompt_(std::move(prompt)) {
  if (model_->input_shape() != prompt_.canvas()) {
    throw std::invalid_argument(
        "prompt canvas " + shape_string(prompt_.canvas()) +
        " does not match the model input " +
        shape_string(model_->input_shape()));
  }
}

Tensor PromptedModel::predict_proba(const Tensor& target_images) const {
  return model_->predict_proba(prompt_.apply(target_images));
}

double PromptedModel::accuracy(const nn::LabeledData& target_data) const {
  if (target_data.size() == 0) return 0.0;
  const std::size_t k = model_->num_classes();
  const Tensor probs = predict_proba(target_data.images);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < target_data.size(); ++i) {
    const float* row = probs.data() + i * k;
    std::size_t arg = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (row[j] > row[arg]) arg = j;
    }
    const int label = target_data.labels[i];
    const int expected =
        mapping_.empty() ? label : mapping_[static_cast<std::size_t>(label)];
    if (static_cast<int>(arg) == expected) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(target_data.size());
}

void PromptedModel::set_label_mapping(std::vector<int> target_to_source) {
  mapping_ = std::move(target_to_source);
}

std::vector<int> fit_frequency_label_mapping(const Tensor& probs,
                                             const std::vector<int>& labels,
                                             std::size_t target_classes) {
  const std::size_t ks = probs.dim(1);
  assert(target_classes <= ks);
  assert(probs.dim(0) == labels.size());
  // Confusion counts C[t][s], flattened target-major.
  std::vector<double> counts(target_classes * ks, 0.0);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const float* row = probs.data() + i * ks;
    std::size_t arg = 0;
    for (std::size_t j = 1; j < ks; ++j) {
      if (row[j] > row[arg]) arg = j;
    }
    counts[static_cast<std::size_t>(labels[i]) * ks + arg] += 1.0;
  }
  // Greedy one-to-one assignment by descending count.
  std::vector<int> mapping(target_classes, -1);
  std::vector<char> source_used(ks, 0);
  for (std::size_t round = 0; round < target_classes; ++round) {
    double best = -1.0;
    std::size_t bt = 0;
    std::size_t bs = 0;
    for (std::size_t t = 0; t < target_classes; ++t) {
      if (mapping[t] >= 0) continue;
      for (std::size_t s = 0; s < ks; ++s) {
        if (source_used[s]) continue;
        if (counts[t * ks + s] > best) {
          best = counts[t * ks + s];
          bt = t;
          bs = s;
        }
      }
    }
    mapping[bt] = static_cast<int>(bs);
    source_used[bs] = 1;
  }
  return mapping;
}

}  // namespace bprom::vp
