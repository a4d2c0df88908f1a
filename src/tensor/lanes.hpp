// Lane-major activations: the one layout of the inference path.
//
// A Lanes value holds one chunk of up to kLanes rows (samples) of a batch,
// stored feature-major with the row innermost: element (row r, feature f)
// sits at f * kLanes + r, where f runs over the per-row shape in row-major
// order ([C, H, W] for images, [D] for dense features).  Every feature is
// then one contiguous kLanes-float vector, so a layer computes all rows of
// the chunk at once with lane-wise arithmetic that rounds exactly like the
// per-row scalar code.  Lanes [rows(), kLanes) are unused and zero.
//
// Lanes is its own type, not a Tensor, so a row-major tensor cannot reach a
// lane kernel by mistake: pack() and unpack() are the only crossings.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"

namespace bprom::tensor {

/// Rows per chunk, and floats per feature vector.
inline constexpr std::size_t kLanes = 16;

class Lanes {
 public:
  /// A zero-filled chunk of `rows` rows (1 <= rows <= kLanes) of per-row
  /// shape `shape`.
  Lanes(std::vector<std::size_t> shape, std::size_t rows);

  /// Rows [lo, hi) of a row-major batch [N, ...] (1 <= hi - lo <= kLanes);
  /// the per-row shape is the batch's shape without its first dimension.
  static Lanes pack(const Tensor& batch, std::size_t lo, std::size_t hi);

  /// Writes the rows() used rows, row-major, to `rows_out`
  /// (rows() * features() floats).
  void unpack(float* rows_out) const;

  /// The used rows as a row-major tensor [rows(), shape()...].
  [[nodiscard]] Tensor unpack() const;

  [[nodiscard]] const std::vector<std::size_t>& shape() const {
    return shape_;
  }
  [[nodiscard]] std::size_t dim(std::size_t i) const { return shape_.at(i); }
  [[nodiscard]] std::size_t rows() const { return rows_; }
  /// Floats per row: the product of shape().
  [[nodiscard]] std::size_t features() const { return data_.size() / kLanes; }

  float* data() { return data_.data(); }
  [[nodiscard]] const float* data() const { return data_.data(); }

  /// Reinterpret the per-row shape without moving data (Flatten); the
  /// product must stay features().
  void reshape(std::vector<std::size_t> shape);

  /// Zero lanes [rows(), kLanes) of every feature.  Layers whose arithmetic
  /// maps a zero input to a nonzero output (a bias, a BatchNorm shift) call
  /// it on their result.
  void clear_unused();

  /// Lane-wise in-place sum, over every lane (0 + 0 keeps unused lanes 0).
  Lanes& add(const Lanes& rhs);

 private:
  std::vector<std::size_t> shape_;
  std::size_t rows_;
  std::vector<float> data_;
};

/// What a lane convolution applies to each output vector before it stores
/// it: an eval-mode BatchNorm2d when `mean` is set, then a ReLU when `relu`
/// is.  Per element that is BatchNorm2d::infer's v = (p - mean) * inv_std,
/// p = gamma * v + beta, and ReLU::infer's p = p > 0 ? p : 0, with the same
/// roundings.  The four arrays hold one float per output channel.
struct LaneEpilogue {
  const float* mean = nullptr;
  const float* inv_std = nullptr;
  const float* gamma = nullptr;
  const float* beta = nullptr;
  bool relu = false;
};

/// Conv2d over a lane chunk: y (per-row shape [out_c, out_h, out_w], every
/// lane written) from x (per-row shape [g.in_c, g.in_h, g.in_w]), weight
/// [out_c, g.patch_size()] and bias [out_c], then `epilogue`.  Each output
/// sums w * x over its taps in ascending (c, ky, kx) order, padding taps
/// as w * 0, each kGemmKc-tap panel from +0, and folds the panel sums onto
/// the bias in ascending order: the additions of the im2col GEMM.  A padded
/// layer's input is first copied into a zero-bordered buffer; that buffer
/// and the tap-offset table live in the calling thread's util::Scratch
/// arena, and the call never enters the pool.
void conv2d_lanes(const Lanes& x, const ConvGeometry& g, const float* weight,
                  const float* bias, std::size_t out_c, Lanes& y,
                  const LaneEpilogue& epilogue = {});

/// DepthwiseConv2d over a lane chunk: y (per-row shape [g.in_c, out_h,
/// out_w], every lane written) from weight [g.in_c, k * k] and bias
/// [g.in_c], then `epilogue`.  Each output starts at its channel's bias and
/// adds w * x over its in-image taps in ascending (ky, kx) order.
/// Allocates nothing.
void depthwise_lanes(const Lanes& x, const ConvGeometry& g,
                     const float* weight, const float* bias, Lanes& y,
                     const LaneEpilogue& epilogue = {});

}  // namespace bprom::tensor
