// The ISA-specific half of the GEMM: packing and the register tile,
// templated on element type and tile width NR.  tensor/gemm.cpp
// instantiates the portable baseline and tensor/gemm_avx2.cpp (compiled
// with -mavx2) the AVX2 variant; nothing else includes this header.
//
// Linkage rule: everything here sits in an anonymous namespace and calls
// nothing with external linkage — no std:: algorithms, no util::Scratch, no
// std::function.  The linker keeps one copy of each inline or template
// function with external linkage for the whole program, so a copy emitted
// by the -mavx2 translation unit could be the one the baseline path runs,
// and a host without AVX2 would die with SIGILL.  The tier-1 test
// `gemm_tile_symbols` checks the AVX2 object for weak and stray global
// symbols.
#pragma once

#include <cstddef>

#include "tensor/gemm_variant.hpp"

namespace bprom::tensor::detail {
namespace {

constexpr std::size_t tile_min(std::size_t x, std::size_t y) {
  return x < y ? x : y;
}

template <typename T>
T load(Trans t, const T* p, std::size_t ld, std::size_t row,
       std::size_t col) {
  return t == Trans::kNo ? p[row * ld + col] : p[col * ld + row];
}

/// Pack op_a(A)[i0 .. i0+mc, p0 .. p0+kc] as ceil(mc/MR) strips of
/// [kc][MR], rows beyond mc padded with zeros so the micro-kernel always
/// runs a full MR x NR tile (the pad contributes exact +0 terms to lanes
/// that are never stored).
template <typename T>
void pack_a(Trans ta, const T* a, std::size_t lda, std::size_t i0,
            std::size_t p0, std::size_t mc, std::size_t kc, T* out) {
  constexpr std::size_t kMr = kGemmMr;
  for (std::size_t ir = 0; ir < mc; ir += kMr) {
    const std::size_t mr = tile_min(kMr, mc - ir);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t r = 0; r < kMr; ++r) {
        *out++ = r < mr ? load(ta, a, lda, i0 + ir + r, p0 + p) : T(0);
      }
    }
  }
}

/// Pack op_b(B)[p0 .. p0+kc, j0 .. j0+nc] as ceil(nc/NR) strips of
/// [kc][NR], columns beyond nc padded with zeros.
template <typename T, std::size_t Nr>
void pack_b(Trans tb, const T* b, std::size_t ldb, std::size_t p0,
            std::size_t j0, std::size_t kc, std::size_t nc, T* out) {
  for (std::size_t jr = 0; jr < nc; jr += Nr) {
    const std::size_t nr = tile_min(Nr, nc - jr);
    for (std::size_t p = 0; p < kc; ++p) {
      for (std::size_t c = 0; c < Nr; ++c) {
        *out++ = c < nr ? load(tb, b, ldb, p0 + p, j0 + jr + c) : T(0);
      }
    }
  }
}

/// MR x NR register tile over one packed A strip ([kc][MR]) and one packed
/// B strip ([kc][NR]).  The fixed-width accumulator array has independent
/// lanes, so -O2/-O3 auto-vectorizes the NR loop without -ffast-math.
/// Folds into C (gemm.cpp zeroes the tile first when not accumulating).
template <typename T, std::size_t Nr>
void micro_kernel(const T* __restrict pa, const T* __restrict pb,
                  std::size_t kc, T* __restrict c, std::size_t ldc,
                  std::size_t mr, std::size_t nr) {
  constexpr std::size_t kMr = kGemmMr;
  // Full unrolling turns acc[][] into distinct scalars the register
  // allocator can keep in SIMD registers; without it the accumulators
  // round-trip through the stack every k step.
  T acc[kMr][Nr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const T* __restrict ap = pa + p * kMr;
    const T* __restrict bp = pb + p * Nr;
#pragma GCC unroll 6
    for (std::size_t r = 0; r < kMr; ++r) {
      const T av = ap[r];
#pragma GCC unroll 16
      for (std::size_t j = 0; j < Nr; ++j) acc[r][j] += av * bp[j];
    }
  }
  if (mr == kMr && nr == Nr) {
    for (std::size_t r = 0; r < kMr; ++r) {
      T* __restrict cr = c + r * ldc;
      for (std::size_t j = 0; j < Nr; ++j) cr[j] += acc[r][j];
    }
  } else {
    for (std::size_t r = 0; r < mr; ++r) {
      T* cr = c + r * ldc;
      for (std::size_t j = 0; j < nr; ++j) cr[j] += acc[r][j];
    }
  }
}

/// One whole macro-tile: fold every KC panel, in ascending order, into C.
template <typename T, std::size_t Nr>
void gemm_tile(const GemmTileArgs<T>& t) {
  static_assert(kGemmNc % Nr == 0, "B strips must fill the packing buffer");
  constexpr std::size_t kMr = kGemmMr;
  for (std::size_t p0 = 0; p0 < t.k; p0 += kGemmKc) {
    const std::size_t kc = tile_min(kGemmKc, t.k - p0);
    pack_a(t.ta, t.a, t.lda, t.i0, p0, t.mc, kc, t.pack_a);
    pack_b<T, Nr>(t.tb, t.b, t.ldb, p0, t.j0, kc, t.nc, t.pack_b);
    for (std::size_t jr = 0; jr < t.nc; jr += Nr) {
      for (std::size_t ir = 0; ir < t.mc; ir += kMr) {
        micro_kernel<T, Nr>(t.pack_a + (ir / kMr) * kc * kMr,
                            t.pack_b + (jr / Nr) * kc * Nr, kc,
                            t.c + (t.i0 + ir) * t.ldc + t.j0 + jr, t.ldc,
                            tile_min(kMr, t.mc - ir), tile_min(Nr, t.nc - jr));
      }
    }
  }
}

}  // namespace
}  // namespace bprom::tensor::detail
