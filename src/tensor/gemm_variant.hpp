// Private to the GEMM, the lane convolutions, their tests and bench_gemm:
// the kernel variants compiled into this build and the entries that run a
// given one.  This is a test seam, not a setting — gemm(), conv2d_lanes()
// and depthwise_lanes() always run gemm_variant(), which CPUID alone
// decides.
//
// A variant is one instantiation of tensor/gemm_tile.hpp, a function that
// computes a whole macro-tile (every KC panel, packing included) into
// buffers the caller passes in, plus instantiations of tensor/lane_tile.hpp,
// the two lane convolutions (the avx512 variant reuses the AVX2 tiles and
// depthwise kernel).  tensor/gemm.cpp keeps the tile grid, the pool, the
// scratch arena and the zero-fill of C, and tensor/lane_conv.cpp the shape
// checks, Conv2d's padded copy and its tap table, so a variant differs from
// another only in its register blocking and in the ISA its translation
// unit was compiled for.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/gemm.hpp"
#include "tensor/lanes.hpp"

namespace bprom::tensor::detail {

/// One C macro-tile of one gemm call: rows [i0, i0+mc) x cols [j0, j0+nc)
/// of C, folded over every KC panel of K.  `pack_a` holds kGemmMc x kGemmKc
/// elements and `pack_b` kGemmKc x kGemmNc, owned by the caller.
template <typename T>
struct GemmTileArgs {
  Trans ta;
  Trans tb;
  std::size_t k;
  const T* a;
  std::size_t lda;
  const T* b;
  std::size_t ldb;
  T* c;
  std::size_t ldc;
  std::size_t i0;
  std::size_t j0;
  std::size_t mc;
  std::size_t nc;
  T* pack_a;
  T* pack_b;
};

/// Register-tile widths (NR) of each variant.
inline constexpr std::size_t kBaselineNrF32 = 8;
inline constexpr std::size_t kBaselineNrF64 = 4;
inline constexpr std::size_t kAvx2NrF32 = 16;
inline constexpr std::size_t kAvx2NrF64 = 8;

template <typename T>
using GemmTileFn = void (*)(const GemmTileArgs<T>&);

/// One lane convolution of one chunk (tensor/lane_tile.hpp): x, per-row
/// shape [in_c, in_h, in_w], into y, per-row shape [out_c, out_h, out_w],
/// both kLanes floats per feature.  Conv2d weights are [out_c, in_c * k * k];
/// a depthwise convolution has out_c == in_c and weights [in_c, k * k].
///
/// A Conv2d kernel reads x through `taps`: x is already zero-padded
/// (pad == 0, in_h and in_w the padded extent), and taps[p] is the float
/// offset of tap p = (c, ky, kx) from an output pixel's first input.  A
/// depthwise kernel walks the taps inside the image and leaves `taps` null.
/// `epilogue` is applied to every output vector before it is stored.
struct LaneConvArgs {
  const float* x;
  const float* weight;
  const float* bias;
  float* y;
  std::size_t in_c;
  std::size_t in_h;
  std::size_t in_w;
  std::size_t out_c;
  std::size_t out_h;
  std::size_t out_w;
  std::size_t kernel;
  std::size_t stride;
  std::size_t pad;
  const std::size_t* taps;
  LaneEpilogue epilogue;
};

using LaneConvFn = void (*)(const LaneConvArgs&);

struct GemmVariant {
  const char* name;         ///< "baseline", "avx2", "avx512"
  std::size_t nr_f32;       ///< register-tile width, floats
  std::size_t nr_f64;       ///< register-tile width, doubles
  bool supported;           ///< the host CPU can run it
  GemmTileFn<float> tile_f32;
  GemmTileFn<double> tile_f64;
  LaneConvFn conv_lanes;       ///< Conv2d over a lane chunk
  LaneConvFn depthwise_lanes;  ///< DepthwiseConv2d over a lane chunk
};

/// Every variant compiled into this build, baseline first.
std::span<const GemmVariant> gemm_variants();

/// The variant gemm() runs: the last supported entry of gemm_variants(),
/// chosen once, at first use.
const GemmVariant& gemm_variant();

/// gemm() on the given variant.
void gemm_with(const GemmVariant& variant, Trans ta, Trans tb, std::size_t m,
               std::size_t n, std::size_t k, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float* c, std::size_t ldc,
               bool accumulate, bool allow_parallel = true);
void gemm_with(const GemmVariant& variant, Trans ta, Trans tb, std::size_t m,
               std::size_t n, std::size_t k, const double* a,
               std::size_t lda, const double* b, std::size_t ldb, double* c,
               std::size_t ldc, bool accumulate, bool allow_parallel = true);

/// conv2d_lanes() and depthwise_lanes() on the given variant.
void conv2d_lanes_with(const GemmVariant& variant, const Lanes& x,
                       const ConvGeometry& g, const float* weight,
                       const float* bias, std::size_t out_c, Lanes& y,
                       const LaneEpilogue& epilogue = {});
void depthwise_lanes_with(const GemmVariant& variant, const Lanes& x,
                          const ConvGeometry& g, const float* weight,
                          const float* bias, Lanes& y,
                          const LaneEpilogue& epilogue = {});

/// The baseline lane convolutions (tensor/lane_conv.cpp).
void conv_lanes_baseline(const LaneConvArgs& args);
void depthwise_lanes_baseline(const LaneConvArgs& args);

#if defined(__x86_64__)
/// The AVX2 tile and lane convolutions (tensor/gemm_avx2.cpp, compiled with
/// -mavx2).  Run them only on a host whose CPUID reports AVX2.
void gemm_tile_avx2(const GemmTileArgs<float>& args);
void gemm_tile_avx2(const GemmTileArgs<double>& args);
void conv_lanes_avx2(const LaneConvArgs& args);
void depthwise_lanes_avx2(const LaneConvArgs& args);

/// The AVX-512 Conv2d lane convolution (tensor/gemm_avx512.cpp, compiled
/// with -mavx512f).  Run it only on a host whose CPUID reports AVX-512F.
void conv_lanes_avx512(const LaneConvArgs& args);
#endif

}  // namespace bprom::tensor::detail
