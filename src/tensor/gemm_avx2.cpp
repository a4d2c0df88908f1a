// The AVX2 GEMM tile: tensor/gemm_tile.hpp at NR = 16 floats / 8 doubles
// (two 256-bit vectors per accumulator row).  The root CMakeLists.txt
// compiles this file, and only this file, with -mavx2, and only on x86-64;
// elsewhere it compiles to nothing.  gemm() runs these entry points only
// when CPUID reports AVX2.  Everything else this file defines has internal
// linkage (see the linkage rule in gemm_tile.hpp).
#if defined(__x86_64__)

#if !defined(__AVX2__)
#error "gemm_avx2.cpp must be compiled with -mavx2"
#endif

#include "tensor/gemm_tile.hpp"
#include "tensor/gemm_variant.hpp"

namespace bprom::tensor::detail {

void gemm_tile_avx2(const GemmTileArgs<float>& args) {
  gemm_tile<float, kAvx2NrF32>(args);
}

void gemm_tile_avx2(const GemmTileArgs<double>& args) {
  gemm_tile<double, kAvx2NrF64>(args);
}

}  // namespace bprom::tensor::detail

#endif  // defined(__x86_64__)
