#include "nn/loss.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bprom::nn {

Tensor softmax(const Tensor& logits) {
  assert(logits.rank() == 2);
  Tensor probs = logits;
  softmax_rows(probs.data(), logits.dim(0), logits.dim(1));
  return probs;
}

void softmax_rows(float* rows, std::size_t n, std::size_t k) {
  for (std::size_t i = 0; i < n; ++i) {
    float* row = rows + i * k;
    float maxv = row[0];
    for (std::size_t j = 1; j < k; ++j) maxv = std::max(maxv, row[j]);
    float denom = 0.0F;
    // ordered: ascending class index within the row.
    for (std::size_t j = 0; j < k; ++j) {
      row[j] = std::exp(row[j] - maxv);
      denom += row[j];
    }
    for (std::size_t j = 0; j < k; ++j) row[j] /= denom;
  }
}

LossResult cross_entropy(const Tensor& logits,
                         const std::vector<int>& labels) {
  assert(logits.rank() == 2 && logits.dim(0) == labels.size());
  const std::size_t n = logits.dim(0);
  const std::size_t k = logits.dim(1);
  LossResult result;
  result.dlogits = softmax(logits);
  const float inv_n = 1.0F / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    float* row = result.dlogits.data() + i * k;
    const auto label = static_cast<std::size_t>(labels[i]);
    assert(label < k);
    result.loss -= std::log(std::max(row[label], 1e-12F));
    // Argmax for accuracy bookkeeping.
    std::size_t arg = 0;
    for (std::size_t j = 1; j < k; ++j) {
      if (row[j] > row[arg]) arg = j;
    }
    if (arg == label) ++result.correct;
    row[label] -= 1.0F;
    for (std::size_t j = 0; j < k; ++j) row[j] *= inv_n;
  }
  result.loss /= static_cast<double>(n);
  return result;
}

}  // namespace bprom::nn
