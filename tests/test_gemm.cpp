// Blocked GEMM kernel tests: every tile variant the host can run goes
// through the full blocked gemm and must agree bit for bit with the
// reference over edge-tile shapes, every transpose/accumulate variant,
// multi-panel K, doubles, and 1/2/8-thread pools; the dispatcher must pick
// the widest variant CPUID reports.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/gemm_variant.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bprom::tensor {
namespace {

using detail::GemmVariant;

std::vector<float> randn(std::size_t count, util::Rng& rng) {
  std::vector<float> v(count);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

std::vector<double> randn_f64(std::size_t count, util::Rng& rng) {
  std::vector<double> v(count);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// The compiled variants this host can run: the baseline always, AVX2 and
/// AVX-512 when CPUID reports them.
std::vector<const GemmVariant*> runnable_variants() {
  std::vector<const GemmVariant*> out;
  for (const GemmVariant& v : detail::gemm_variants()) {
    if (v.supported) out.push_back(&v);
  }
  return out;
}

// Shapes that straddle every tile boundary: scalar, sub-tile, MR-1/MR/MR+1
// (5, 6, 7), NR-1/NR/NR+1 of every variant's float tile (7/8/9, 15/16/17)
// and double tile (3 and 5 around the baseline's 4, 7/8/9), and one
// spilling past the MC macro-tile edge.
const std::size_t kEdgeSizes[] = {1, 3, 5, 6, 7, 8, 9, 15, 16, 17,
                                  kGemmMc + 5};

TEST(Gemm, VariantTableListsTheBaselineFirst) {
  const auto all = detail::gemm_variants();
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(std::string(all.front().name), "baseline");
  EXPECT_TRUE(all.front().supported);
  std::string ran;
  for (const GemmVariant* v : runnable_variants()) {
    ran += std::string(" ") + v->name;
  }
  std::printf("[ gemm     ] chosen tile: %s; runnable:%s\n",
              detail::gemm_variant().name, ran.c_str());
}

// The last variant CPUID supports: avx512 on AVX-512F hosts (which all
// have the AVX2 its GEMM tiles and depthwise kernel run), else avx2 on AVX2
// hosts, else the baseline.
TEST(Gemm, DispatcherPicksAvx2ExactlyWhenTheCpuHasIt) {
#if defined(__x86_64__)
  __builtin_cpu_init();
  const bool avx2 = __builtin_cpu_supports("avx2") != 0;
  const bool avx512 = avx2 && __builtin_cpu_supports("avx512f") != 0;
  EXPECT_EQ(std::string(detail::gemm_variant().name),
            avx512 ? "avx512" : avx2 ? "avx2" : "baseline");
#else
  EXPECT_EQ(std::string(detail::gemm_variant().name), "baseline");
#endif
}

TEST(Gemm, MatchesReferenceBitwiseOverEdgeTileShapes) {
  for (const GemmVariant* variant : runnable_variants()) {
    util::Rng rng(17);
    for (const std::size_t m : kEdgeSizes) {
      for (const std::size_t n : kEdgeSizes) {
        for (const std::size_t k : kEdgeSizes) {
          for (const Trans ta : {Trans::kNo, Trans::kYes}) {
            for (const Trans tb : {Trans::kNo, Trans::kYes}) {
              const std::size_t lda = ta == Trans::kNo ? k : m;
              const std::size_t ldb = tb == Trans::kNo ? n : k;
              const auto a = randn(m * k, rng);
              const auto b = randn(k * n, rng);
              std::vector<float> c(m * n);
              std::vector<float> want(m * n);
              detail::gemm_with(*variant, ta, tb, m, n, k, a.data(), lda,
                                b.data(), ldb, c.data(), n,
                                /*accumulate=*/false);
              gemm_reference(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                             want.data(), n, /*accumulate=*/false);
              ASSERT_EQ(c, want) << variant->name << " m=" << m << " n=" << n
                                 << " k=" << k
                                 << " ta=" << (ta == Trans::kYes)
                                 << " tb=" << (tb == Trans::kYes);
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, AccumulateVariantFoldsOntoExistingC) {
  for (const GemmVariant* variant : runnable_variants()) {
    util::Rng rng(23);
    const std::size_t m = kGemmMr + 2;
    const std::size_t n = 19;  // a partial strip after full 8- and 16-wide
    const std::size_t k = 29;
    const auto a = randn(m * k, rng);
    const auto b = randn(k * n, rng);
    const auto seed = randn(m * n, rng);
    std::vector<float> c = seed;
    std::vector<float> want = seed;
    detail::gemm_with(*variant, Trans::kNo, Trans::kNo, m, n, k, a.data(), k,
                      b.data(), n, c.data(), n, /*accumulate=*/true);
    gemm_reference(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
                   want.data(), n, /*accumulate=*/true);
    ASSERT_EQ(c, want) << variant->name;
    // And the non-accumulating call overwrites the seeded garbage entirely.
    std::vector<float> fresh(m * n, 0.0F);
    gemm_reference(Trans::kNo, Trans::kNo, m, n, k, a.data(), k, b.data(), n,
                   fresh.data(), n, /*accumulate=*/false);
    detail::gemm_with(*variant, Trans::kNo, Trans::kNo, m, n, k, a.data(), k,
                      b.data(), n, c.data(), n, /*accumulate=*/false);
    ASSERT_EQ(c, fresh) << variant->name;
  }
}

TEST(Gemm, MultiPanelKMatchesReferenceBitwise) {
  // K > kGemmKc exercises the per-panel fold into C; the reference replays
  // the same panel grouping, so agreement stays bitwise.
  for (const GemmVariant* variant : runnable_variants()) {
    util::Rng rng(29);
    const std::size_t m = 7;
    const std::size_t n = 19;
    const std::size_t k = kGemmKc + kGemmKc / 2;
    for (const Trans ta : {Trans::kNo, Trans::kYes}) {
      for (const Trans tb : {Trans::kNo, Trans::kYes}) {
        const std::size_t lda = ta == Trans::kNo ? k : m;
        const std::size_t ldb = tb == Trans::kNo ? n : k;
        const auto a = randn(m * k, rng);
        const auto b = randn(k * n, rng);
        std::vector<float> c(m * n);
        std::vector<float> want(m * n);
        detail::gemm_with(*variant, ta, tb, m, n, k, a.data(), lda, b.data(),
                          ldb, c.data(), n, false);
        gemm_reference(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                       want.data(), n, false);
        ASSERT_EQ(c, want) << variant->name << " ta=" << (ta == Trans::kYes)
                           << " tb=" << (tb == Trans::kYes);
      }
    }
  }
}

TEST(Gemm, DoubleKernelMatchesReferenceBitwise) {
  for (const GemmVariant* variant : runnable_variants()) {
    util::Rng rng(31);
    const std::size_t m = kGemmMr + 1;
    for (const std::size_t n : kEdgeSizes) {
      for (const std::size_t k : {std::size_t{43}, kGemmKc + 7}) {
        for (const Trans ta : {Trans::kNo, Trans::kYes}) {
          for (const Trans tb : {Trans::kNo, Trans::kYes}) {
            const std::size_t lda = ta == Trans::kNo ? k : m;
            const std::size_t ldb = tb == Trans::kNo ? n : k;
            const auto a = randn_f64(m * k, rng);
            const auto b = randn_f64(k * n, rng);
            std::vector<double> c(m * n);
            std::vector<double> want(m * n);
            detail::gemm_with(*variant, ta, tb, m, n, k, a.data(), lda,
                              b.data(), ldb, c.data(), n, false);
            gemm_reference(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                           want.data(), n, false);
            ASSERT_EQ(c, want) << variant->name << " n=" << n << " k=" << k
                               << " ta=" << (ta == Trans::kYes)
                               << " tb=" << (tb == Trans::kYes);
          }
        }
      }
    }
  }
}

TEST(Gemm, ZeroKZeroesOrPreservesC) {
  for (const GemmVariant* variant : runnable_variants()) {
    std::vector<float> c = {1.0F, 2.0F, 3.0F, 4.0F};
    detail::gemm_with(*variant, Trans::kNo, Trans::kNo, 2, 2, 0, nullptr, 1,
                      nullptr, 2, c.data(), 2, /*accumulate=*/true);
    ASSERT_EQ(c, (std::vector<float>{1.0F, 2.0F, 3.0F, 4.0F}))
        << variant->name;
    detail::gemm_with(*variant, Trans::kNo, Trans::kNo, 2, 2, 0, nullptr, 1,
                      nullptr, 2, c.data(), 2, /*accumulate=*/false);
    ASSERT_EQ(c, (std::vector<float>{0.0F, 0.0F, 0.0F, 0.0F}))
        << variant->name;
  }
}

TEST(Gemm, BitIdenticalAcrossThreadCounts) {
  // Large enough that the macro-tile grid actually fans out over the pool
  // (several row and column tiles, multi-panel K).
  util::Rng rng(37);
  const std::size_t m = 2 * kGemmMc + 7;
  const std::size_t n = kGemmNc + 11;
  const std::size_t k = kGemmKc + 33;
  const auto a = randn(m * k, rng);
  const auto b = randn(k * n, rng);
  std::vector<float> want(m * n);
  gemm_reference(Trans::kNo, Trans::kYes, m, n, k, a.data(), k, b.data(), k,
                 want.data(), n, false);

  for (const GemmVariant* variant : runnable_variants()) {
    for (const std::size_t threads : {1UL, 2UL, 8UL}) {
      util::ThreadPool pool(threads);
      util::ScopedPoolOverride overridden(pool);
      std::vector<float> c(m * n);
      detail::gemm_with(*variant, Trans::kNo, Trans::kYes, m, n, k, a.data(),
                        k, b.data(), k, c.data(), n, /*accumulate=*/false);
      // Every pool size matches the single-thread reference, hence each
      // other.
      ASSERT_EQ(c, want) << variant->name << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace bprom::tensor
