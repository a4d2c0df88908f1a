#include "tensor/gemm.hpp"

#include <algorithm>

#include "tensor/gemm_tile.hpp"
#include "tensor/gemm_variant.hpp"
#include "util/scratch.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

// Below this many multiply-adds the pool dispatch overhead dominates and
// the serial tile walk wins.  The gate depends only on problem size, and
// serial vs parallel walks are bitwise identical anyway (disjoint tiles,
// same per-tile arithmetic), so this is a pure scheduling choice.
constexpr std::size_t kParallelMulAdds = std::size_t{1} << 21;

// The portable baseline tile, compiled for the target's baseline ISA (on
// x86-64, SSE2: two vectors per accumulator row).
void gemm_tile_baseline(const detail::GemmTileArgs<float>& args) {
  detail::gemm_tile<float, detail::kBaselineNrF32>(args);
}
void gemm_tile_baseline(const detail::GemmTileArgs<double>& args) {
  detail::gemm_tile<double, detail::kBaselineNrF64>(args);
}

bool host_has_avx2() {
#if defined(__x86_64__)
  // Explicit init: the first gemm may run from a static constructor, before
  // libgcc's own CPU-model constructor.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// AVX-512F, and AVX2 for the variant's GEMM tiles and depthwise kernel
/// (every AVX-512F CPU has it).  libgcc reports avx512f only when XGETBV
/// shows that the OS saves the ZMM and mask registers.
bool host_has_avx512() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") != 0 && host_has_avx2();
#else
  return false;
#endif
}

template <typename T>
detail::GemmTileFn<T> tile_of(const detail::GemmVariant& variant) {
  if constexpr (sizeof(T) == sizeof(float)) {
    return variant.tile_f32;
  } else {
    return variant.tile_f64;
  }
}

template <typename T>
void gemm_impl(const detail::GemmVariant& variant, Trans ta, Trans tb,
               std::size_t m, std::size_t n, std::size_t k, const T* a,
               std::size_t lda, const T* b, std::size_t ldb, T* c,
               std::size_t ldc, bool accumulate, bool allow_parallel) {
  if (m == 0 || n == 0) return;
  constexpr std::size_t kMr = kGemmMr;
  const detail::GemmTileFn<T> tile = tile_of<T>(variant);
  const std::size_t col_tiles = (n + kGemmNc - 1) / kGemmNc;

  // Row grain: MC normally, but when a parallel-eligible problem is too
  // skinny in N for the (MC, NC) grid to feed a typical pool (a narrow
  // Linear layer has col_tiles == 1), shrink the row tiles — to a multiple
  // of MR — until the grid has ~kTargetTiles tasks.  The grain depends
  // only on the problem shape, and the tile partition never changes any
  // element's summation order (each element folds its KC panels the same
  // way whichever tile owns it), so this is a pure scheduling choice.
  constexpr std::size_t kTargetTiles = 16;
  const bool parallel = allow_parallel && m * n * k >= kParallelMulAdds;
  std::size_t row_grain = kGemmMc;
  if (parallel && (m + row_grain - 1) / row_grain * col_tiles < kTargetTiles) {
    const std::size_t want_rows = (kTargetTiles + col_tiles - 1) / col_tiles;
    std::size_t grain = (m + want_rows - 1) / want_rows;
    grain = (grain + kMr - 1) / kMr * kMr;
    row_grain = std::min(kGemmMc, std::max(grain, kMr));
  }
  const std::size_t row_tiles = (m + row_grain - 1) / row_grain;

  // One C macro-tile, computed start-to-finish by one task: zero (unless
  // accumulating), then fold every KC panel in ascending order.
  const auto tile_task = [&](std::size_t idx) {
    const std::size_t i0 = (idx / col_tiles) * row_grain;
    const std::size_t j0 = (idx % col_tiles) * kGemmNc;
    const std::size_t mc = std::min(row_grain, m - i0);
    const std::size_t nc = std::min(kGemmNc, n - j0);
    if (!accumulate) {
      for (std::size_t r = 0; r < mc; ++r) {
        std::fill_n(c + (i0 + r) * ldc + j0, nc, T(0));
      }
    }
    if (k == 0) return;
    util::Scratch& scratch = util::Scratch::tls();
    tile({.ta = ta,
          .tb = tb,
          .k = k,
          .a = a,
          .lda = lda,
          .b = b,
          .ldb = ldb,
          .c = c,
          .ldc = ldc,
          .i0 = i0,
          .j0 = j0,
          .mc = mc,
          .nc = nc,
          .pack_a = scratch.buffer<T>(util::Scratch::kGemmPackA,
                                      kGemmMc * kGemmKc),
          .pack_b = scratch.buffer<T>(util::Scratch::kGemmPackB,
                                      kGemmKc * kGemmNc)});
  };

  const std::size_t tiles = row_tiles * col_tiles;
  if (parallel && tiles > 1) {
    util::parallel_for(tiles, tile_task);
  } else {
    for (std::size_t t = 0; t < tiles; ++t) tile_task(t);
  }
}

template <typename T>
void gemm_reference_impl(Trans ta, Trans tb, std::size_t m, std::size_t n,
                         std::size_t k, const T* a, std::size_t lda,
                         const T* b, std::size_t ldb, T* c, std::size_t ldc,
                         bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      T& out = c[i * ldc + j];
      if (!accumulate) out = T(0);
      // Same grouping as the kernel: per KC block, a local accumulator in
      // ascending k, folded into C — bitwise identical to gemm().
      for (std::size_t p0 = 0; p0 < k; p0 += kGemmKc) {
        const std::size_t hi = std::min(p0 + kGemmKc, k);
        T acc(0);
        for (std::size_t p = p0; p < hi; ++p) {
          acc += detail::load(ta, a, lda, i, p) *
                 detail::load(tb, b, ldb, p, j);
        }
        out += acc;
      }
    }
  }
}

}  // namespace

namespace detail {

std::span<const GemmVariant> gemm_variants() {
  static const GemmVariant kVariants[] = {
      {"baseline", kBaselineNrF32, kBaselineNrF64, true, gemm_tile_baseline,
       gemm_tile_baseline, conv_lanes_baseline, depthwise_lanes_baseline},
#if defined(__x86_64__)
      {"avx2", kAvx2NrF32, kAvx2NrF64, host_has_avx2(), gemm_tile_avx2,
       gemm_tile_avx2, conv_lanes_avx2, depthwise_lanes_avx2},
      {"avx512", kAvx2NrF32, kAvx2NrF64, host_has_avx512(), gemm_tile_avx2,
       gemm_tile_avx2, conv_lanes_avx512, depthwise_lanes_avx2},
#endif
  };
  return kVariants;
}

const GemmVariant& gemm_variant() {
  static const GemmVariant& chosen = []() -> const GemmVariant& {
    const std::span<const GemmVariant> all = gemm_variants();
    const GemmVariant* pick = &all.front();
    for (const GemmVariant& v : all) {
      if (v.supported) pick = &v;
    }
    return *pick;
  }();
  return chosen;
}

void gemm_with(const GemmVariant& variant, Trans ta, Trans tb, std::size_t m,
               std::size_t n, std::size_t k, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float* c, std::size_t ldc,
               bool accumulate, bool allow_parallel) {
  gemm_impl(variant, ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
            allow_parallel);
}

void gemm_with(const GemmVariant& variant, Trans ta, Trans tb, std::size_t m,
               std::size_t n, std::size_t k, const double* a,
               std::size_t lda, const double* b, std::size_t ldb, double* c,
               std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(variant, ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate,
            allow_parallel);
}

}  // namespace detail

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(detail::gemm_variant(), ta, tb, m, n, k, a, lda, b, ldb, c, ldc,
            accumulate, allow_parallel);
}

void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, bool accumulate, bool allow_parallel) {
  gemm_impl(detail::gemm_variant(), ta, tb, m, n, k, a, lda, b, ldb, c, ldc,
            accumulate, allow_parallel);
}

void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate) {
  gemm_reference_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const double* a, std::size_t lda,
                    const double* b, std::size_t ldb, double* c,
                    std::size_t ldc, bool accumulate) {
  gemm_reference_impl(ta, tb, m, n, k, a, lda, b, ldb, c, ldc, accumulate);
}

}  // namespace bprom::tensor
