// The lane convolutions' entry points: shape checks, the baseline
// instantiation of tensor/lane_tile.hpp and the dispatch to the variant
// gemm_variant() chose (the AVX2 one lives in tensor/gemm_avx2.cpp).
#include <stdexcept>

#include "tensor/gemm_variant.hpp"
#include "tensor/lane_tile.hpp"
#include "tensor/lanes.hpp"

namespace bprom::tensor {
namespace detail {

// Four-float vectors: SSE2 on x86-64, where a 16-lane feature takes four
// of the 16 vector registers, so a block of two output channels (eight
// accumulators) and the input feature stay in registers.
void conv_lanes_baseline(const LaneConvArgs& args) { lane_conv<2, 4>(args); }
void depthwise_lanes_baseline(const LaneConvArgs& args) {
  lane_depthwise<2, 4>(args);
}

namespace {

bool has_shape(const Lanes& t, std::size_t c, std::size_t h, std::size_t w) {
  return t.shape().size() == 3 && t.dim(0) == c && t.dim(1) == h &&
         t.dim(2) == w;
}

/// The kernel arguments, after checking that x and y have the per-row
/// shapes the geometry implies: a mismatch would read or write past them.
LaneConvArgs lane_args(const Lanes& x, const ConvGeometry& g,
                       const float* weight, const float* bias,
                       std::size_t out_c, Lanes& y) {
  if (!has_shape(x, g.in_c, g.in_h, g.in_w) || g.kernel == 0 ||
      g.stride == 0 || g.in_h + 2 * g.pad < g.kernel ||
      g.in_w + 2 * g.pad < g.kernel ||
      !has_shape(y, out_c, g.out_h(), g.out_w()) || x.rows() != y.rows()) {
    throw std::invalid_argument(
        "lane convolution: input or output chunk does not match the "
        "layer's geometry");
  }
  return {.x = x.data(),
          .weight = weight,
          .bias = bias,
          .y = y.data(),
          .in_c = g.in_c,
          .in_h = g.in_h,
          .in_w = g.in_w,
          .out_c = out_c,
          .out_h = g.out_h(),
          .out_w = g.out_w(),
          .kernel = g.kernel,
          .stride = g.stride,
          .pad = g.pad};
}

}  // namespace

void conv2d_lanes_with(const GemmVariant& variant, const Lanes& x,
                       const ConvGeometry& g, const float* weight,
                       const float* bias, std::size_t out_c, Lanes& y) {
  variant.conv_lanes(lane_args(x, g, weight, bias, out_c, y));
}

void depthwise_lanes_with(const GemmVariant& variant, const Lanes& x,
                          const ConvGeometry& g, const float* weight,
                          const float* bias, Lanes& y) {
  variant.depthwise_lanes(lane_args(x, g, weight, bias, g.in_c, y));
}

}  // namespace detail

void conv2d_lanes(const Lanes& x, const ConvGeometry& g, const float* weight,
                  const float* bias, std::size_t out_c, Lanes& y) {
  detail::conv2d_lanes_with(detail::gemm_variant(), x, g, weight, bias, out_c,
                            y);
}

void depthwise_lanes(const Lanes& x, const ConvGeometry& g,
                     const float* weight, const float* bias, Lanes& y) {
  detail::depthwise_lanes_with(detail::gemm_variant(), x, g, weight, bias, y);
}

}  // namespace bprom::tensor
