// Softmax + cross-entropy, fused for numerical stability.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace bprom::nn {

using tensor::Tensor;

/// Row-wise softmax of logits [N, K].
Tensor softmax(const Tensor& logits);

/// softmax() in place over `n` rows of `k` floats.
void softmax_rows(float* rows, std::size_t n, std::size_t k);

struct LossResult {
  double loss = 0.0;          // mean cross-entropy over the batch
  Tensor dlogits;             // gradient wrt logits (already / N)
  std::size_t correct = 0;    // argmax hits, for running accuracy
};

/// Mean cross-entropy of logits [N, K] against integer labels.
LossResult cross_entropy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace bprom::nn
