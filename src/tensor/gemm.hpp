// Cache-blocked, register-tiled GEMM shared by every training/inspection
// hot path (Linear/Conv2d forward+backward, attention matmuls, and the
// double-precision analysis matrices in linalg).
//
// Kernel design (see README "Performance & parallelism"):
//   - BLIS-style blocking: C is partitioned into a *fixed* grid of
//     kGemmMc x kGemmNc macro-tiles; each macro-tile walks the K dimension
//     in kGemmKc panels, packing the A panel as [kc][MR] strips and the
//     B panel as [kc][NR] strips into the per-thread util::Scratch arena so
//     the micro-kernel streams contiguous, zero-padded memory.
//   - The micro-kernel keeps an MR x NR accumulator array in registers; the
//     NR lanes are independent, so the compiler is free to vectorize them
//     into SIMD lanes without any reassociation license.  Products and sums
//     stay separate roundings: the build passes -ffp-contract=off, so no
//     ISA fuses them into FMAs and the kernel rounds exactly like
//     gemm_reference.
//   - The tile is compiled twice: a portable baseline (NR = 8 floats /
//     4 doubles) and an AVX2 variant (NR = 16 / 8) built with -mavx2 in its
//     own translation unit.  gemm() picks the AVX2 tile once, at first use,
//     when CPUID reports AVX2.  NR only sets how many independent lanes a
//     tile holds — every element still sums its products in ascending k
//     within each KC panel — so both tiles give the same bits.
//   - Parallelism is over the macro-tile grid via util::parallel_for.  The
//     grid depends only on the problem shape and compile-time constants —
//     never on the thread count or the tile variant (skinny-N problems get
//     a finer row grain so the grid still feeds a pool, but the grain is a
//     pure function of the shape) — and every tile is computed
//     start-to-finish by one task, so results are bit-identical for any
//     BPROM_THREADS.  The tile partition never changes any element's
//     summation order, only which task owns it.
//
// Determinism contract: for a fixed problem (shape + transposes +
// accumulate), every element of C is produced by the same floating-point
// addition sequence regardless of pool size and tile variant.  The sequence
// is: per KC block in ascending order, a register accumulator sums the
// block's products in ascending k, then folds into C.  gemm_reference
// replicates exactly that grouping, so kernel-vs-reference comparisons are
// bitwise for any k.
#pragma once

#include <cstddef>

namespace bprom::tensor {

/// Whether an operand is used as stored or transposed.  `lda`/`ldb` are
/// always the *storage* row strides (elements per stored row).
enum class Trans { kNo, kYes };

// Blocking constants, exposed so tests can probe edge-tile shapes.  They
// are compile-time constants shared by every tile variant — runtime thread
// count and CPU never change the tile grid, so the determinism contract is
// unaffected.  The register tile's width NR is a per-variant constant
// (tensor/gemm_variant.hpp).
inline constexpr std::size_t kGemmMr = 6;    // micro-tile rows
inline constexpr std::size_t kGemmMc = 96;   // macro-tile rows
inline constexpr std::size_t kGemmKc = 256;  // K panel depth
inline constexpr std::size_t kGemmNc = 512;  // macro-tile cols

/// C (m x n, row stride ldc) = [accumulate ? C : 0] + op_a(A) . op_b(B)
/// where op_a(A) is m x k and op_b(B) is k x n.  `allow_parallel=false`
/// forces the serial tile walk — callers that already shard an outer loop
/// over the pool use it to keep the task count bounded; the choice must
/// depend only on problem shape so results stay thread-count invariant
/// (the serial walk visits tiles in the same order with the same
/// arithmetic, so it is bitwise identical to the parallel one anyway).
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const float* a, std::size_t lda, const float* b, std::size_t ldb,
          float* c, std::size_t ldc, bool accumulate,
          bool allow_parallel = true);
void gemm(Trans ta, Trans tb, std::size_t m, std::size_t n, std::size_t k,
          const double* a, std::size_t lda, const double* b, std::size_t ldb,
          double* c, std::size_t ldc, bool accumulate,
          bool allow_parallel = true);

/// Naive single-thread reference with the kernel's summation grouping:
/// per KC block, a local accumulator sums products in ascending k, then
/// folds into C.  Bitwise-identical to gemm() for any shape (it replays the
/// same KC partition); kept scalar + unblocked so benches can measure the
/// blocked kernel against the pre-PR-5 style triple loop.
void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const float* a, std::size_t lda,
                    const float* b, std::size_t ldb, float* c,
                    std::size_t ldc, bool accumulate);
void gemm_reference(Trans ta, Trans tb, std::size_t m, std::size_t n,
                    std::size_t k, const double* a, std::size_t lda,
                    const double* b, std::size_t ldb, double* c,
                    std::size_t ldc, bool accumulate);

}  // namespace bprom::tensor
