// Private to the GEMM, its tests and bench_gemm: the tile variants compiled
// into this build and the gemm entry that runs a given one.  This is a
// test seam, not a setting — gemm() always runs gemm_variant(), which CPUID
// alone decides.
//
// A variant is one instantiation of tensor/gemm_tile.hpp: a function that
// computes a whole macro-tile (every KC panel, packing included) into
// buffers the caller passes in.  tensor/gemm.cpp keeps the tile grid, the
// pool, the scratch arena and the zero-fill of C, so a variant differs
// from another only in NR and in the ISA its translation unit was compiled
// for.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/gemm.hpp"

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

struct GemmVariant {
  const char* name;         ///< "baseline", "avx2"
  std::size_t nr_f32;       ///< register-tile width, floats
  std::size_t nr_f64;       ///< register-tile width, doubles
  bool supported;           ///< the host CPU can run it
  GemmTileFn<float> tile_f32;
  GemmTileFn<double> tile_f64;
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

#if defined(__x86_64__)
/// The AVX2 tile (tensor/gemm_avx2.cpp, compiled with -mavx2).  Run it only
/// on a host whose CPUID reports AVX2.
void gemm_tile_avx2(const GemmTileArgs<float>& args);
void gemm_tile_avx2(const GemmTileArgs<double>& args);
#endif

}  // namespace bprom::tensor::detail
