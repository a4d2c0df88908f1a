// Kernel microbenchmark.  The GEMM: blocked kernel vs the naive
// single-thread reference across the shapes the framework's training path
// runs, plus the large square shapes of the >= 2x single-thread gate, and
// every tile variant this host can run timed single-threaded on each shape.
// The lane convolutions: every variant this host can run (baseline, avx2,
// avx512), single-threaded on one full 16-row chunk, at each Conv2d and
// DepthwiseConv2d shape of the ResNet18Mini, MobileNetV2Mini and
// MobileViTMini inference forwards on 3 x 16 x 16 inputs, next to the same
// layer's row-major training forward on those 16 rows (im2col plus
// per-sample GEMMs for Conv2d, a row-wise tap loop for depthwise).  Each
// 3 x 3 shape is also timed with the BatchNorm2d + ReLU epilogue its
// inference forward runs in the kernel.  Emits BENCH_gemm.json via
// BenchReport, with the chosen variant under labels.gemm_tile:
//   gemm/<shape>/naive                seconds, scalar reference, 1 thread
//   gemm/<shape>/blocked_1t           seconds, blocked kernel, 1-thread pool
//   gemm/<shape>/blocked              seconds, blocked kernel, default pool
//   gemm/<shape>/speedup_1t           naive / blocked_1t (dimensionless)
//   gemm/<shape>/<variant>_1t         seconds, that tile variant, 1 thread
//   lanes/<layer>/forward_1t          seconds, row-major forward of 16 rows
//   lanes/<layer>/<variant>_1t        seconds, that variant's lane kernel
//   lanes/<layer>/<variant>_bn_relu_1t  the same with the epilogue (3 x 3)
#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "nn/layers.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_variant.hpp"
#include "tensor/lanes.hpp"
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

// The first rows are the training path's hot shapes: the per-sample Conv2d
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

// Every Conv2d (depthwise = false) and DepthwiseConv2d shape of the three
// nets' inference forwards on 3 x 16 x 16 inputs, each once.
struct LaneShape {
  const char* id;
  bool depthwise;
  std::size_t in_c, out_c, kernel, stride, pad, h, w;
};

const LaneShape kLaneShapes[] = {
    // ResNet18Mini: stem, then two residual blocks (conv1, conv2, 1x1 skip).
    {"conv_3to4_k3_16x16", false, 3, 4, 3, 1, 1, 16, 16},
    {"conv_4to8_k3s2_16x16", false, 4, 8, 3, 2, 1, 16, 16},
    {"conv_8to8_k3_8x8", false, 8, 8, 3, 1, 1, 8, 8},
    {"conv_4to8_k1s2_16x16", false, 4, 8, 1, 2, 0, 16, 16},
    {"conv_8to16_k3s2_8x8", false, 8, 16, 3, 2, 1, 8, 8},
    {"conv_16to16_k3_4x4", false, 16, 16, 3, 1, 1, 4, 4},
    {"conv_8to16_k1s2_8x8", false, 8, 16, 1, 2, 0, 8, 8},
    // MobileNetV2Mini and MobileViTMini: stem and pointwise convolutions.
    {"conv_3to8_k3_16x16", false, 3, 8, 3, 1, 1, 16, 16},
    {"conv_8to16_k1_8x8", false, 8, 16, 1, 1, 0, 8, 8},
    {"conv_16to16_k1_8x8", false, 16, 16, 1, 1, 0, 8, 8},
    {"conv_16to16_k1_4x4", false, 16, 16, 1, 1, 0, 4, 4},
    {"conv_16to32_k1_4x4", false, 16, 32, 1, 1, 0, 4, 4},
    // Their depthwise convolutions.
    {"dw_8_k3s2_16x16", true, 8, 8, 3, 2, 1, 16, 16},
    {"dw_16_k3_8x8", true, 16, 16, 3, 1, 1, 8, 8},
    {"dw_16_k3s2_8x8", true, 16, 16, 3, 2, 1, 8, 8},
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

  // Lane convolutions, one full chunk each, every time under a 1-thread
  // pool so a layer's own sharding cannot blur the comparison.
  std::printf("\n%-22s %12s", "lane layer", "forward_us");
  for (const auto& variant : bprom::tensor::detail::gemm_variants()) {
    if (variant.supported) std::printf(" %12s", variant.name);
  }
  std::printf("\n");
  bprom::util::ScopedPoolOverride serial(one);
  for (const LaneShape& s : kLaneShapes) {
    bprom::util::Rng rng(103);
    const bprom::tensor::ConvGeometry g{s.in_c, s.h, s.w, s.kernel, s.stride,
                                        s.pad};
    const auto x = bprom::tensor::Tensor::randn(
        {bprom::tensor::kLanes, s.in_c, s.h, s.w}, rng);
    const bprom::tensor::Lanes lanes =
        bprom::tensor::Lanes::pack(x, 0, bprom::tensor::kLanes);
    bprom::tensor::Lanes y({s.out_c, g.out_h(), g.out_w()},
                           bprom::tensor::kLanes);
    std::unique_ptr<bprom::nn::Layer> layer;
    if (s.depthwise) {
      layer = std::make_unique<bprom::nn::DepthwiseConv2d>(s.in_c, s.kernel,
                                                           s.stride, s.pad,
                                                           rng);
    } else {
      layer = std::make_unique<bprom::nn::Conv2d>(s.in_c, s.out_c, s.kernel,
                                                  s.stride, s.pad, rng);
    }
    const std::vector<bprom::nn::Parameter*> params = layer->parameters();
    const float* weight = params[0]->value.data();
    const float* bias = params[1]->value.data();
    // Default running statistics and affine parameters: the epilogue's
    // cost does not depend on their values.
    const bprom::nn::BatchNorm2d bn(s.out_c);
    std::vector<float> inv_std;
    const bprom::tensor::LaneEpilogue bn_relu =
        bn.lane_epilogue(s.out_c, inv_std, /*relu=*/true);

    const std::size_t taps = s.depthwise ? s.kernel * s.kernel
                                         : g.patch_size();
    const std::size_t muladds =
        bprom::tensor::kLanes * g.out_h() * g.out_w() * s.out_c * taps;
    const std::size_t reps =
        std::max<std::size_t>(1, (std::size_t{1} << 25) / muladds);
    const std::string prefix = std::string("lanes/") + s.id + "/";
    const double forward = time_reps(reps, [&] {
      const bprom::tensor::Tensor out = layer->forward(x, false);
      (void)out;
    });
    std::printf("%-22s %12.2f", s.id, forward * 1e6);
    report.add_cell(prefix + "forward_1t", forward);
    std::string fused_line;
    for (const auto& variant : bprom::tensor::detail::gemm_variants()) {
      if (!variant.supported) continue;
      const auto run = [&](const bprom::tensor::LaneEpilogue& epilogue) {
        return time_reps(reps, [&] {
          if (s.depthwise) {
            bprom::tensor::detail::depthwise_lanes_with(variant, lanes, g,
                                                        weight, bias, y,
                                                        epilogue);
          } else {
            bprom::tensor::detail::conv2d_lanes_with(
                variant, lanes, g, weight, bias, s.out_c, y, epilogue);
          }
        });
      };
      const double seconds = run({});
      std::printf(" %12.2f", seconds * 1e6);
      report.add_cell(prefix + variant.name + "_1t", seconds);
      if (s.kernel == 3) {
        const double fused = run(bn_relu);
        char cell[16];
        std::snprintf(cell, sizeof cell, " %12.2f", fused * 1e6);
        fused_line += cell;
        report.add_cell(prefix + variant.name + "_bn_relu_1t", fused);
      }
    }
    std::printf("\n");
    if (!fused_line.empty()) {
      std::printf("%-22s %12s%s\n", "  + bn_relu", "", fused_line.c_str());
    }
  }
  report.write();
  return 0;
}
