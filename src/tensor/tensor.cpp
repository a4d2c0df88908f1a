#include "tensor/tensor.hpp"

#include <algorithm>

namespace bprom::tensor {

std::size_t shape_size(const std::vector<std::size_t>& shape) {
  std::size_t total = 1;
  for (auto d : shape) total *= d;
  return total;
}

Tensor::Tensor(std::vector<std::size_t> shape, float fill)
    : shape_(std::move(shape)), data_(shape_size(shape_), fill) {}

void Tensor::reshape(std::vector<std::size_t> shape) {
  assert(shape_size(shape) == data_.size());
  shape_ = std::move(shape);
}

void Tensor::resize(std::vector<std::size_t> shape) {
  shape_ = std::move(shape);
  data_.resize(shape_size(shape_));
}

void Tensor::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Tensor& Tensor::add(const Tensor& rhs) {
  assert(rhs.size() == size());
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Tensor& Tensor::add_scaled(const Tensor& rhs, float scale) {
  assert(rhs.size() == size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    data_[i] += scale * rhs.data_[i];
  }
  return *this;
}

Tensor& Tensor::scale(float s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Tensor Tensor::randn(std::vector<std::size_t> shape, util::Rng& rng,
                     float stddev) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = static_cast<float>(rng.normal(0.0, stddev));
  return t;
}

}  // namespace bprom::tensor
