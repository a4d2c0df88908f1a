// GEMM kernel microbenchmark: blocked kernel vs the naive single-thread
// reference across the shapes the framework's nets actually run, plus the
// large square shapes of the >= 2x single-thread gate, and every tile
// variant this host can run timed single-threaded on each shape.  Emits
// BENCH_gemm.json via BenchReport, with the chosen tile under
// labels.gemm_tile:
//   <shape>/naive          seconds, scalar reference, 1 thread
//   <shape>/blocked_1t     seconds, blocked kernel under a 1-thread pool
//   <shape>/blocked        seconds, blocked kernel on the default pool
//   <shape>/speedup_1t     naive / blocked_1t ratio (dimensionless)
//   <shape>/<variant>_1t   seconds, that tile variant under a 1-thread pool
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_variant.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using bprom::tensor::Trans;

struct Shape {
  const char* id;
  std::size_t m, n, k;
  Trans ta, tb;
};

// The first rows are the framework's hot shapes: the per-sample Conv2d
// forward GEMMs (W . cols over the patch-major im2col matrix) of the
// 16 x 16 nets, Linear forward (x . W^T), Linear dW (G^T . X), a wider
// Conv2d forward, attention scores (Q . K^T).  The "large*" rows are the
// acceptance-gate shapes.
const Shape kShapes[] = {
    // The ResNet18Mini stem (3 -> 4 channels, 3 x 3, 16 x 16 output).
    {"conv_4x256x27", 4, 256, 27, Trans::kNo, Trans::kNo},
    {"conv_8x64x72", 8, 64, 72, Trans::kNo, Trans::kNo},
    {"conv_16x16x144", 16, 16, 144, Trans::kNo, Trans::kNo},
    // The MobileNetV2Mini stem (3 -> 8 channels).
    {"conv_8x256x27", 8, 256, 27, Trans::kNo, Trans::kNo},
    {"linear_fwd_b128", 128, 256, 192, Trans::kNo, Trans::kYes},
    {"linear_dw_b128", 256, 192, 128, Trans::kYes, Trans::kNo},
    {"conv_fwd_c64", 64, 256, 288, Trans::kNo, Trans::kNo},
    {"attn_scores_t256", 256, 256, 64, Trans::kNo, Trans::kYes},
    {"large_384", 384, 384, 384, Trans::kNo, Trans::kNo},
    {"large_512", 512, 512, 512, Trans::kNo, Trans::kNo},
};

double time_reps(std::size_t reps, const std::function<void()>& body) {
  bprom::util::Stopwatch watch;
  for (std::size_t r = 0; r < reps; ++r) body();
  return watch.seconds() / static_cast<double>(reps);
}

}  // namespace

int main() {
  bench::BenchReport report("gemm");
  bprom::util::ThreadPool one(1);
  const auto& chosen = bprom::tensor::detail::gemm_variant();
  std::printf("gemm tile: %s (NR = %zu floats / %zu doubles)\n", chosen.name,
              chosen.nr_f32, chosen.nr_f64);
  report.add_label("gemm_tile", chosen.name);

  std::printf("%-18s %10s %12s %12s %9s %9s\n", "shape", "naive_ms",
              "blocked1t_ms", "blocked_ms", "x1t", "xpool");
  bool large_ok = true;
  for (const Shape& s : kShapes) {
    bprom::util::Rng rng(101);
    std::vector<float> a(s.m * s.k);
    std::vector<float> b(s.k * s.n);
    std::vector<float> c(s.m * s.n);
    for (auto& x : a) x = static_cast<float>(rng.normal());
    for (auto& x : b) x = static_cast<float>(rng.normal());
    const std::size_t lda = s.ta == Trans::kNo ? s.k : s.m;
    const std::size_t ldb = s.tb == Trans::kNo ? s.n : s.k;

    // Enough repetitions that each measurement spans tens of milliseconds.
    const std::size_t muladds = s.m * s.n * s.k;
    const std::size_t reps =
        std::max<std::size_t>(1, (std::size_t{1} << 27) / muladds);

    const double naive = time_reps(reps, [&] {
      bprom::tensor::gemm_reference(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda,
                                    b.data(), ldb, c.data(), s.n, false);
    });
    double blocked_1t = 0.0;
    {
      bprom::util::ScopedPoolOverride serial(one);
      blocked_1t = time_reps(reps, [&] {
        bprom::tensor::gemm(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda,
                            b.data(), ldb, c.data(), s.n, false);
      });
    }
    const double blocked = time_reps(reps, [&] {
      bprom::tensor::gemm(s.ta, s.tb, s.m, s.n, s.k, a.data(), lda, b.data(),
                          ldb, c.data(), s.n, false);
    });

    const double x1t = naive / blocked_1t;
    const double xpool = naive / blocked;
    std::printf("%-18s %10.3f %12.3f %12.3f %8.2fx %8.2fx\n", s.id,
                naive * 1e3, blocked_1t * 1e3, blocked * 1e3, x1t, xpool);
    const std::string prefix = std::string("gemm/") + s.id + "/";
    report.add_cell(prefix + "naive", naive);
    report.add_cell(prefix + "blocked_1t", blocked_1t);
    report.add_cell(prefix + "blocked", blocked);
    report.add_cell(prefix + "speedup_1t", x1t);
    for (const auto& variant : bprom::tensor::detail::gemm_variants()) {
      if (!variant.supported) continue;
      bprom::util::ScopedPoolOverride serial(one);
      const double seconds = time_reps(reps, [&] {
        bprom::tensor::detail::gemm_with(variant, s.ta, s.tb, s.m, s.n, s.k,
                                         a.data(), lda, b.data(), ldb,
                                         c.data(), s.n, false);
      });
      std::printf("  %-16s %12.4f ms\n",
                  (std::string(variant.name) + "_1t").c_str(), seconds * 1e3);
      report.add_cell(prefix + variant.name + "_1t", seconds);
    }
    if (std::string(s.id).rfind("large", 0) == 0 && x1t < 2.0) {
      large_ok = false;
    }
  }
  std::printf("large shapes >= 2x single-thread: %s\n",
              large_ok ? "yes" : "NO");
  report.write();
  return 0;
}
