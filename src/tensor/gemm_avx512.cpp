// The AVX-512 kernel: Conv2d's lane convolution (tensor/lane_tile.hpp),
// where a 16-lane feature is one 512-bit vector, so a block of four output
// channels by four output pixels holds its 16 accumulators in half of the
// 32 registers.  The variant's GEMM tiles and its depthwise convolution are
// the AVX2 ones (tensor/gemm.cpp's variant table).  The root CMakeLists.txt
// compiles this file, and only this file, with -mavx512f, and only on
// x86-64; elsewhere it compiles to nothing.  conv2d_lanes() runs this entry
// point only when CPUID reports AVX-512F.  Everything else this file
// defines has internal linkage (see the linkage rule in gemm_tile.hpp).
#if defined(__x86_64__)

#if !defined(__AVX512F__)
#error "gemm_avx512.cpp must be compiled with -mavx512f"
#endif

#include "tensor/gemm_variant.hpp"
#include "tensor/lane_tile.hpp"

namespace bprom::tensor::detail {

void conv_lanes_avx512(const LaneConvArgs& args) { lane_conv<4, 4, 16>(args); }

}  // namespace bprom::tensor::detail

#endif  // defined(__x86_64__)
