// im2col / col2im for convolution lowering to matrix multiplication.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/tensor.hpp"

namespace bprom::tensor {

/// Half-open range [lo, hi) of output positions along one axis; empty when
/// lo == hi.
struct OutputSpan {
  std::size_t lo = 0;
  std::size_t hi = 0;
};

struct ConvGeometry {
  std::size_t in_c = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 3;
  std::size_t stride = 1;
  std::size_t pad = 1;

  [[nodiscard]] std::size_t out_h() const {
    return (in_h + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t out_w() const {
    return (in_w + 2 * pad - kernel) / stride + 1;
  }
  [[nodiscard]] std::size_t patch_size() const {
    return in_c * kernel * kernel;
  }
  /// Output rows oy whose input row oy * stride + ky - pad is inside the
  /// image; every other output row sees padding through tap ky.
  [[nodiscard]] OutputSpan rows_for_tap(std::size_t ky) const {
    return span_for_tap(in_h, out_h(), ky);
  }
  /// Output columns ox whose input column ox * stride + kx - pad is inside
  /// the image.
  [[nodiscard]] OutputSpan cols_for_tap(std::size_t kx) const {
    return span_for_tap(in_w, out_w(), kx);
  }

 private:
  [[nodiscard]] OutputSpan span_for_tap(std::size_t in, std::size_t out,
                                        std::size_t tap) const {
    // o * stride + tap >= pad, and o * stride + tap - pad <= in - 1.
    const std::size_t lo = tap >= pad ? 0 : (pad - tap + stride - 1) / stride;
    const std::size_t hi =
        in + pad <= tap ? 0 : std::min(out, (in + pad - tap - 1) / stride + 1);
    return {std::min(lo, hi), hi};
  }
};

/// input:  [N, C, H, W]
/// output: [N * C * k * k, out_h * out_w], patch-major: sample b's kernel
/// tap (c, ky, kx) owns row b * C * k * k + (c * k + ky) * k + kx, and
/// output position (oy, ox) is column oy * out_w + ox; taps that land in
/// the padding read 0.  Per sample the block is the [patch, hw] operand
/// of y_b = W . cols_b.
Tensor im2col(const Tensor& input, const ConvGeometry& g);

/// im2col into a caller-owned tensor, reusing its allocation when the
/// capacity suffices — Conv2d keeps one such buffer per layer so the
/// steady-state forward performs no heap allocation.
void im2col_into(const Tensor& input, const ConvGeometry& g, Tensor& cols);

/// Inverse scatter-add of im2col (same patch-major layout); returns
/// [N, C, H, W].  Allocates its result on purpose: the image-space gradient
/// is handed back to the caller, unlike the column matrices that stay
/// layer-resident.
Tensor col2im(const Tensor& cols, const ConvGeometry& g, std::size_t batch);

}  // namespace bprom::tensor
