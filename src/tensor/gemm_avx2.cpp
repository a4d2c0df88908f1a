// The AVX2 kernels: the GEMM tile (tensor/gemm_tile.hpp at NR = 16 floats
// / 8 doubles, two 256-bit vectors per accumulator row) and the lane
// convolutions (tensor/lane_tile.hpp; a 16-lane row is two 256-bit
// vectors, so four output channels per block fill 8 of the 16 registers).
// The root CMakeLists.txt compiles this file, and only this file, with
// -mavx2, and only on x86-64; elsewhere it compiles to nothing.  gemm(),
// conv2d_lanes() and depthwise_lanes() run these entry points only when
// CPUID reports AVX2.  Everything else this file defines has internal
// linkage (see the linkage rule in gemm_tile.hpp).
#if defined(__x86_64__)

#if !defined(__AVX2__)
#error "gemm_avx2.cpp must be compiled with -mavx2"
#endif

#include "tensor/gemm_tile.hpp"
#include "tensor/gemm_variant.hpp"
#include "tensor/lane_tile.hpp"

namespace bprom::tensor::detail {

void gemm_tile_avx2(const GemmTileArgs<float>& args) {
  gemm_tile<float, kAvx2NrF32>(args);
}

void gemm_tile_avx2(const GemmTileArgs<double>& args) {
  gemm_tile<double, kAvx2NrF64>(args);
}

void conv_lanes_avx2(const LaneConvArgs& args) { lane_conv<4, 1, 8>(args); }

void depthwise_lanes_avx2(const LaneConvArgs& args) {
  lane_depthwise<4, 8>(args);
}

}  // namespace bprom::tensor::detail

#endif  // defined(__x86_64__)
