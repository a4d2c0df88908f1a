// Contiguous float tensor used by the training framework.
//
// Layout conventions:
//   images / activations:  [N, C, H, W]
//   dense activations:     [N, D]
//   conv kernels:          [OC, IC * KH * KW]
// All data is owned, contiguous, row-major over the shape vector.
#pragma once

#include <cassert>
#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace bprom::tensor {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape, float fill = 0.0F);

  [[nodiscard]] const std::vector<std::size_t>& shape() const { return shape_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const {
    assert(i < shape_.size());
    return shape_[i];
  }
  [[nodiscard]] std::size_t rank() const { return shape_.size(); }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }
  std::vector<float>& vec() { return data_; }
  [[nodiscard]] const std::vector<float>& vec() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  /// 4-D accessor for [N, C, H, W] tensors.
  float& at4(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }
  [[nodiscard]] float at4(std::size_t n, std::size_t c, std::size_t h,
                          std::size_t w) const {
    return data_[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
  }

  /// 2-D accessor for [N, D] tensors.
  float& at2(std::size_t n, std::size_t d) {
    return data_[n * shape_[1] + d];
  }
  [[nodiscard]] float at2(std::size_t n, std::size_t d) const {
    return data_[n * shape_[1] + d];
  }

  /// Reinterpret shape without copying; product must match size().
  void reshape(std::vector<std::size_t> shape);

  /// Re-dimension in place, reusing the existing allocation whenever the
  /// capacity suffices (the steady-state path for per-layer scratch
  /// tensors).  Element values are unspecified afterwards.
  void resize(std::vector<std::size_t> shape);

  void fill(float v);
  void zero() { fill(0.0F); }

  /// In-place elementwise helpers.
  Tensor& add(const Tensor& rhs);
  Tensor& add_scaled(const Tensor& rhs, float scale);
  Tensor& scale(float s);

  /// Gaussian init with given stddev.
  static Tensor randn(std::vector<std::size_t> shape, util::Rng& rng,
                      float stddev = 1.0F);

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Product of dims.
std::size_t shape_size(const std::vector<std::size_t>& shape);

}  // namespace bprom::tensor
