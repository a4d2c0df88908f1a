// Mini-batch trainer for Model over in-memory labeled data.
#pragma once

#include <vector>

#include "nn/model.hpp"
#include "util/rng.hpp"

namespace bprom::nn {

/// A labeled image set kept fully in memory (all substrates are synthetic
/// and small).
struct LabeledData {
  Tensor images;            // [N, C, H, W]
  std::vector<int> labels;  // size N

  [[nodiscard]] std::size_t size() const { return labels.size(); }
};

struct TrainConfig {
  std::size_t epochs = 6;
  std::size_t batch_size = 32;
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 1e-4F;
  /// Multiply lr by this each epoch (simple exponential decay).
  float lr_decay = 0.85F;
  std::uint64_t seed = 1;
};

struct TrainHistory {
  std::vector<double> epoch_loss;
  std::vector<double> epoch_accuracy;
};

/// SGD training with shuffling; returns per-epoch loss/accuracy.
TrainHistory train_classifier(Model& model, const LabeledData& data,
                              const TrainConfig& config);

}  // namespace bprom::nn
