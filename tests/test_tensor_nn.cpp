// Training framework tests: tensor ops, im2col, gradient checks via finite
// differences, loss, optimizers, architecture factory, training convergence.
#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>
#include "nn/arch.hpp"
#include "nn/blocks.hpp"
#include "nn/attention.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_variant.hpp"
#include "tensor/im2col.hpp"
#include "tensor/lanes.hpp"
#include "util/thread_pool.hpp"
namespace bprom::nn {
namespace {

TEST(Tensor, ShapeAndAccessors) {
  Tensor t({2, 3, 4, 4});
  EXPECT_EQ(t.size(), 96u);
  t.at4(1, 2, 3, 3) = 7.0F;
  EXPECT_FLOAT_EQ(t[95], 7.0F);
}

TEST(Im2Col, IdentityKernelGeometry) {
  tensor::ConvGeometry g{1, 3, 3, 3, 1, 1};
  EXPECT_EQ(g.out_h(), 3u);
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i);
  Tensor cols = tensor::im2col(x, g);
  EXPECT_EQ(cols.dim(0), 9u);
  EXPECT_EQ(cols.dim(1), 9u);
  // Column 4, the center output position, sees the whole image.
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_FLOAT_EQ(cols.at2(i, 4), static_cast<float>(i));
  }
}

TEST(Im2Col, PatchMajorLayout) {
  // Row b * C*k*k + (c*k + ky)*k + kx, column oy * OW + ox holds the input
  // pixel that tap (c, ky, kx) of output (oy, ox) reads, or 0 in padding.
  util::Rng rng(5);
  const tensor::ConvGeometry g{2, 5, 4, 3, 2, 1};
  Tensor x = Tensor::randn({2, 2, 5, 4}, rng);
  Tensor cols = tensor::im2col(x, g);
  const std::size_t k = g.kernel;
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  ASSERT_EQ(cols.dim(0), 2 * g.patch_size());
  ASSERT_EQ(cols.dim(1), oh * ow);
  for (std::size_t b = 0; b < 2; ++b) {
    for (std::size_t c = 0; c < g.in_c; ++c) {
      for (std::size_t ky = 0; ky < k; ++ky) {
        for (std::size_t kx = 0; kx < k; ++kx) {
          for (std::size_t oy = 0; oy < oh; ++oy) {
            for (std::size_t ox = 0; ox < ow; ++ox) {
              const long iy = static_cast<long>(oy * g.stride + ky) - 1;
              const long ix = static_cast<long>(ox * g.stride + kx) - 1;
              const bool inside = iy >= 0 && iy < 5 && ix >= 0 && ix < 4;
              const float want =
                  inside ? x.at4(b, c, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix))
                         : 0.0F;
              EXPECT_EQ(cols.at2(b * g.patch_size() + (c * k + ky) * k + kx,
                                 oy * ow + ox),
                        want)
                  << "b" << b << " c" << c << " tap " << ky << kx << " out "
                  << oy << "," << ox;
            }
          }
        }
      }
    }
  }
}

TEST(Im2Col, Col2ImAdjoint) {
  // <im2col(x), y> == <x, col2im(y)> (adjoint property).
  util::Rng rng(3);
  tensor::ConvGeometry g{2, 4, 4, 3, 2, 1};
  Tensor x = Tensor::randn({1, 2, 4, 4}, rng);
  Tensor y = Tensor::randn({g.patch_size(), g.out_h() * g.out_w()}, rng);
  Tensor cols = tensor::im2col(x, g);
  double lhs = 0;
  for (std::size_t i = 0; i < cols.size(); ++i) lhs += cols[i] * y[i];
  Tensor xt = tensor::col2im(y, g, 1);
  double rhs = 0;
  for (std::size_t i = 0; i < x.size(); ++i) rhs += x[i] * xt[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

struct ConvCase {
  std::size_t in_c, out_c, kernel, stride, pad, h, w;
};

// Cases span kernel 1, 2 (SwinMini's patchify) and 3, stride 1 and 2, pad 0
// to 2, non-square inputs, taps that reach no in-image pixel (1-pixel-high
// input, stride 2, pad 2) and a 32-channel 3x3 patch (288 > kGemmKc, so two
// K panels fold).
const ConvCase kConvCases[] = {
    {3, 4, 3, 1, 1, 5, 7}, {3, 5, 3, 2, 1, 7, 6}, {2, 3, 3, 2, 0, 6, 5},
    {2, 3, 3, 1, 0, 4, 6}, {4, 6, 1, 1, 0, 5, 3}, {4, 6, 1, 2, 0, 5, 4},
    {3, 4, 2, 2, 0, 6, 8}, {2, 3, 3, 2, 2, 1, 4}, {2, 2, 3, 1, 1, 2, 5},
    {32, 4, 3, 1, 1, 4, 5},
};

void randomize(Parameter& p, util::Rng& rng) {
  p.value = Tensor::randn(p.value.shape(), rng);
}

using tensor::kLanes;

/// Runs `layer` over `x` [N, ...] the way Model does: lane chunks of up to
/// kLanes rows, unpacked back to rows.
Tensor lane_infer(const Layer& layer, const Tensor& x) {
  const std::size_t n = x.dim(0);
  std::vector<float> out;
  std::vector<std::size_t> row_shape;
  for (std::size_t lo = 0; lo < n; lo += kLanes) {
    const Lanes y = layer.infer(Lanes::pack(x, lo, std::min(lo + kLanes, n)));
    const Tensor rows = y.unpack();
    out.insert(out.end(), rows.vec().begin(), rows.vec().end());
    row_shape = y.shape();
  }
  row_shape.insert(row_shape.begin(), n);
  Tensor t(row_shape);
  t.vec() = out;
  return t;
}

/// True when lanes [rows(), kLanes) of every feature are +0.
bool unused_lanes_zero(const Lanes& y) {
  for (std::size_t f = 0; f < y.features(); ++f) {
    for (std::size_t r = y.rows(); r < kLanes; ++r) {
      const float v = y.data()[f * kLanes + r];
      if (v != 0.0F || std::signbit(v)) return false;
    }
  }
  return true;
}

/// Lane chunks run through a kernel entry of one variant, unpacked to rows.
template <typename Kernel>
std::vector<float> lane_kernel_rows(const Tensor& x,
                                    std::vector<std::size_t> out_shape,
                                    const Kernel& kernel) {
  const Lanes in = Lanes::pack(x, 0, x.dim(0));
  Lanes y(std::move(out_shape), in.rows());
  kernel(in, y);
  return y.unpack().vec();
}

/// Conv2d as a direct loop with the GEMM's summation grouping: per output,
/// w * x in (c, ky, kx) order with padding taps as w * 0, each kGemmKc
/// panel summed from 0 and folded onto the bias in ascending order.
std::vector<float> conv2d_reference(const Tensor& x, const Tensor& weight,
                                    const Tensor& bias,
                                    const tensor::ConvGeometry& g,
                                    std::size_t out_c) {
  const std::size_t n = x.dim(0);
  const std::size_t k = g.kernel;
  const std::size_t patch = g.patch_size();
  std::vector<float> y;
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      for (std::size_t oy = 0; oy < g.out_h(); ++oy) {
        for (std::size_t ox = 0; ox < g.out_w(); ++ox) {
          float out = bias[oc];
          for (std::size_t p0 = 0; p0 < patch; p0 += tensor::kGemmKc) {
            float acc = 0.0F;
            for (std::size_t p = p0; p < std::min(patch, p0 + tensor::kGemmKc);
                 ++p) {
              const std::size_t c = p / (k * k);
              const long iy = static_cast<long>(oy * g.stride + p / k % k) -
                              static_cast<long>(g.pad);
              const long ix = static_cast<long>(ox * g.stride + p % k) -
                              static_cast<long>(g.pad);
              const bool inside = iy >= 0 && iy < static_cast<long>(g.in_h) &&
                                  ix >= 0 && ix < static_cast<long>(g.in_w);
              const float v =
                  inside ? x.at4(b, c, static_cast<std::size_t>(iy),
                                 static_cast<std::size_t>(ix))
                         : 0.0F;
              acc += weight.at2(oc, p) * v;
            }
            out += acc;
          }
          y.push_back(out);
        }
      }
    }
  }
  return y;
}

/// DepthwiseConv2d forward as a per-pixel loop: bias, then every in-image
/// tap in ascending (ky, kx) order.
std::vector<float> depthwise_reference(const Tensor& x, const Tensor& weight,
                                       const Tensor& bias,
                                       const tensor::ConvGeometry& g) {
  const std::size_t k = g.kernel;
  std::vector<float> y;
  for (std::size_t b = 0; b < x.dim(0); ++b) {
    for (std::size_t c = 0; c < g.in_c; ++c) {
      for (std::size_t oy = 0; oy < g.out_h(); ++oy) {
        for (std::size_t ox = 0; ox < g.out_w(); ++ox) {
          float acc = bias[c];
          for (std::size_t ky = 0; ky < k; ++ky) {
            const long iy = static_cast<long>(oy * g.stride + ky) -
                            static_cast<long>(g.pad);
            if (iy < 0 || iy >= static_cast<long>(g.in_h)) continue;
            for (std::size_t kx = 0; kx < k; ++kx) {
              const long ix = static_cast<long>(ox * g.stride + kx) -
                              static_cast<long>(g.pad);
              if (ix < 0 || ix >= static_cast<long>(g.in_w)) continue;
              acc += weight.at2(c, ky * k + kx) *
                     x.at4(b, c, static_cast<std::size_t>(iy),
                           static_cast<std::size_t>(ix));
            }
          }
          y.push_back(acc);
        }
      }
    }
  }
  return y;
}

/// A BatchNorm2d of `channels` channels whose eval forward moves every
/// value: running mean off 0, running variance off 1, gamma off 1, beta
/// off 0, each drawn per channel.
BatchNorm2d shifted_batchnorm(std::size_t channels, util::Rng& rng) {
  BatchNorm2d bn(channels);
  const std::vector<std::vector<float>*> state = bn.state();
  for (float& m : *state[0]) m = static_cast<float>(rng.normal());
  for (float& v : *state[1]) v = static_cast<float>(rng.uniform(0.2, 2.0));
  for (Parameter* p : bn.parameters()) randomize(*p, rng);
  return bn;
}

/// `y` ([N, C, plane] flattened) through BatchNorm2d::infer's per-element
/// arithmetic with the running statistics, then ReLU's when `relu`.
std::vector<float> bn_relu_reference(std::vector<float> y, BatchNorm2d& bn,
                                     std::size_t plane, bool relu) {
  const std::vector<std::vector<float>*> state = bn.state();
  const std::vector<Parameter*> params = bn.parameters();
  const std::size_t channels = state[0]->size();
  for (std::size_t i = 0; i < y.size(); ++i) {
    const std::size_t c = i / plane % channels;
    const float inv_std = 1.0F / std::sqrt((*state[1])[c] + 1e-5F);
    const float v = (y[i] - (*state[0])[c]) * inv_std;
    y[i] = params[0]->value[c] * v + params[1]->value[c];
    if (relu) y[i] = y[i] > 0.0F ? y[i] : 0.0F;
  }
  return y;
}

/// The training path's eval forward of a convolution, its BatchNorm2d and,
/// when `relu`, a ReLU.
std::vector<float> eval_forward(Layer& conv, BatchNorm2d& bn, bool relu,
                                const Tensor& x) {
  Tensor y = bn.forward(conv.forward(x, false), false);
  if (relu) y = ReLU().forward(y, false);
  return y.vec();
}

// The training forward (im2col GEMM), the lane infer at 1, 5 and 16 rows
// and every lane kernel variant this host can run all match the direct
// loops bit for bit, and the lane infer leaves its unused lanes zero.  The
// same holds with each convolution's BatchNorm2d epilogue, with and without
// a ReLU, against the training path's conv, BatchNorm and ReLU forwards.
TEST(ConvForward, MatchesDirectLoopBitwise) {
  util::Rng rng(21);
  std::size_t rectified = 0;
  std::size_t outputs = 0;
  for (const ConvCase& cc : kConvCases) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{5}, kLanes}) {
      SCOPED_TRACE(::testing::Message()
                   << "in_c " << cc.in_c << " k " << cc.kernel << " s "
                   << cc.stride << " pad " << cc.pad << " " << cc.h << "x"
                   << cc.w << ", " << rows << " rows");
      const tensor::ConvGeometry g{cc.in_c, cc.h, cc.w, cc.kernel, cc.stride,
                                   cc.pad};
      const std::size_t plane = g.out_h() * g.out_w();
      Tensor x = Tensor::randn({rows, cc.in_c, cc.h, cc.w}, rng);
      const Lanes chunk = Lanes::pack(x, 0, rows);

      Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, rng);
      std::vector<Parameter*> cp = conv.parameters();
      randomize(*cp[1], rng);
      const std::vector<float> want =
          conv2d_reference(x, cp[0]->value, cp[1]->value, g, cc.out_c);
      EXPECT_EQ(conv.forward(x, false).vec(), want);
      EXPECT_EQ(lane_infer(conv, x).vec(), want);
      EXPECT_TRUE(unused_lanes_zero(conv.infer(chunk)));

      DepthwiseConv2d dw(cc.in_c, cc.kernel, cc.stride, cc.pad, rng);
      std::vector<Parameter*> dp = dw.parameters();
      randomize(*dp[1], rng);
      const std::vector<float> want_dw =
          depthwise_reference(x, dp[0]->value, dp[1]->value, g);
      EXPECT_EQ(dw.forward(x, false).vec(), want_dw);
      EXPECT_EQ(lane_infer(dw, x).vec(), want_dw);
      EXPECT_TRUE(unused_lanes_zero(dw.infer(chunk)));

      BatchNorm2d bn = shifted_batchnorm(cc.out_c, rng);
      BatchNorm2d bn_dw = shifted_batchnorm(cc.in_c, rng);
      std::vector<float> inv_std;
      std::vector<float> inv_std_dw;
      for (const bool relu : {false, true}) {
        SCOPED_TRACE(relu ? "BatchNorm2d + ReLU" : "BatchNorm2d");
        const std::vector<float> want_bn =
            bn_relu_reference(want, bn, plane, relu);
        const std::vector<float> want_bn_dw =
            bn_relu_reference(want_dw, bn_dw, plane, relu);
        EXPECT_EQ(eval_forward(conv, bn, relu, x), want_bn);
        EXPECT_EQ(eval_forward(dw, bn_dw, relu, x), want_bn_dw);
        const Lanes fused = conv.infer_fused(chunk, bn, relu);
        const Lanes fused_dw = dw.infer_fused(chunk, bn_dw, relu);
        EXPECT_EQ(fused.unpack().vec(), want_bn);
        EXPECT_EQ(fused_dw.unpack().vec(), want_bn_dw);
        EXPECT_TRUE(unused_lanes_zero(fused));
        EXPECT_TRUE(unused_lanes_zero(fused_dw));
        if (relu) {
          outputs += want_bn.size();
          rectified += static_cast<std::size_t>(
              std::count(want_bn.begin(), want_bn.end(), 0.0F));
        }
      }

      for (const auto& variant : tensor::detail::gemm_variants()) {
        if (!variant.supported) continue;
        SCOPED_TRACE(variant.name);
        for (const bool relu : {false, true}) {
          for (const bool with_bn : {false, true}) {
            SCOPED_TRACE(::testing::Message() << "bn " << with_bn << " relu "
                                              << relu);
            tensor::LaneEpilogue epilogue{.relu = relu};
            tensor::LaneEpilogue epilogue_dw{.relu = relu};
            if (with_bn) {
              epilogue = bn.lane_epilogue(cc.out_c, inv_std, relu);
              epilogue_dw = bn_dw.lane_epilogue(cc.in_c, inv_std_dw, relu);
            }
            const auto expect = [&](std::vector<float> y, BatchNorm2d& norm) {
              if (with_bn) return bn_relu_reference(y, norm, plane, relu);
              if (relu) {
                for (float& v : y) v = v > 0.0F ? v : 0.0F;
              }
              return y;
            };
            EXPECT_EQ(lane_kernel_rows(x, {cc.out_c, g.out_h(), g.out_w()},
                                       [&](const Lanes& in, Lanes& y) {
                                         tensor::detail::conv2d_lanes_with(
                                             variant, in, g,
                                             cp[0]->value.data(),
                                             cp[1]->value.data(), cc.out_c, y,
                                             epilogue);
                                       }),
                      expect(want, bn));
            EXPECT_EQ(lane_kernel_rows(x, {cc.in_c, g.out_h(), g.out_w()},
                                       [&](const Lanes& in, Lanes& y) {
                                         tensor::detail::depthwise_lanes_with(
                                             variant, in, g,
                                             dp[0]->value.data(),
                                             dp[1]->value.data(), y,
                                             epilogue_dw);
                                       }),
                      expect(want_dw, bn_dw));
          }
        }
      }
    }
  }
  // The ReLU cases are only a test if the ReLU clamps a good share.
  EXPECT_GT(rectified * 4, outputs);
}

/// The bit patterns of `v`, so NaNs compare equal to themselves.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::memcpy(out.data(), v.data(), v.size() * sizeof(float));
  return out;
}

// A padded Conv2d with a +inf weight: the im2col GEMM multiplies it by
// every padding tap's 0, giving NaN, and the lane kernels walk the padding
// too, so infer() gives forward(x, false)'s bits, NaNs included.
TEST(ConvForward, InfiniteWeightMeetsPaddingAsTheTrainingForwardDoes) {
  util::Rng rng(25);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  std::vector<Parameter*> cp = conv.parameters();
  randomize(*cp[1], rng);
  cp[0]->value[0] = std::numeric_limits<float>::infinity();  // oc 0, (0,0,0)
  const Tensor x = Tensor::randn({5, 3, 5, 7}, rng);
  const std::vector<float> want = conv.forward(x, false).vec();
  ASSERT_TRUE(std::isnan(want[0]));  // output (0, 0) reads padding there
  EXPECT_EQ(bits(lane_infer(conv, x).vec()), bits(want));
  const tensor::ConvGeometry g{3, 5, 7, 3, 1, 1};
  for (const auto& variant : tensor::detail::gemm_variants()) {
    if (!variant.supported) continue;
    SCOPED_TRACE(variant.name);
    EXPECT_EQ(bits(lane_kernel_rows(x, {4, 5, 7},
                                    [&](const Lanes& in, Lanes& y) {
                                      tensor::detail::conv2d_lanes_with(
                                          variant, in, g, cp[0]->value.data(),
                                          cp[1]->value.data(), 4, y);
                                    })),
              bits(want));
  }
}

// A lane kernel refuses a chunk whose shape is not the layer's, in every
// build: it would otherwise read past the chunk.
TEST(ConvForward, LaneKernelsRefuseMismatchedChunks) {
  util::Rng rng(22);
  Conv2d conv(3, 4, 3, 1, 1, rng);
  DepthwiseConv2d dw(3, 3, 1, 1, rng);
  const Tensor wrong = Tensor::randn({2, 2, 5, 5}, rng);
  EXPECT_THROW((void)conv.infer(Lanes::pack(wrong, 0, 2)),
               std::invalid_argument);
  EXPECT_THROW((void)dw.infer(Lanes::pack(wrong, 0, 2)),
               std::invalid_argument);
}

TEST(Lanes, PackUnpackRoundTripKeepsUnusedLanesZero) {
  util::Rng rng(23);
  const Tensor x = Tensor::randn({20, 2, 3, 4}, rng);
  for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, 16},
                               {16, 20}, {3, 4}}) {
    const Lanes chunk = Lanes::pack(x, lo, hi);
    EXPECT_EQ(chunk.rows(), hi - lo);
    EXPECT_EQ(chunk.shape(), (std::vector<std::size_t>{2, 3, 4}));
    EXPECT_EQ(chunk.features(), 24u);
    // Element (row r, feature f) sits at f * kLanes + r.
    EXPECT_EQ(chunk.data()[5 * kLanes + (hi - lo - 1)], x[(hi - 1) * 24 + 5]);
    EXPECT_TRUE(unused_lanes_zero(chunk));
    const Tensor back = chunk.unpack();
    EXPECT_EQ(back.shape(), (std::vector<std::size_t>{hi - lo, 2, 3, 4}));
    EXPECT_TRUE(std::equal(back.vec().begin(), back.vec().end(),
                           x.data() + lo * 24));
  }
  EXPECT_THROW((void)Lanes::pack(x, 0, 17), std::invalid_argument);
  EXPECT_THROW((void)Lanes::pack(x, 4, 4), std::invalid_argument);
}

// Every layer's lane infer matches its forward(x, false) bit for bit at
// 1, 5 and 16 rows and leaves its unused lanes zero.
TEST(LaneInfer, ElementwiseLayersMatchEvalForwardBitwise) {
  util::Rng rng(24);
  BatchNorm2d bn(3);
  for (std::vector<float>* s : bn.state()) {
    for (float& v : *s) v = static_cast<float>(rng.uniform(0.2, 2.0));
  }
  for (Parameter* p : bn.parameters()) randomize(*p, rng);
  ReLU relu;
  Gelu gelu;
  GlobalAvgPool pool;
  Flatten flatten;
  Linear linear(60, 7, rng);
  randomize(*linear.parameters()[1], rng);
  Linear wide(300, 5, rng);  // 300 > kGemmKc: two K panels fold
  randomize(*wide.parameters()[1], rng);
  const std::pair<Layer*, std::vector<std::size_t>> cases[] = {
      {&bn, {3, 4, 5}},      {&relu, {3, 4, 5}}, {&gelu, {3, 4, 5}},
      {&pool, {3, 4, 5}},    {&flatten, {3, 4, 5}}, {&linear, {60}},
      {&wide, {300}}};
  for (const auto& [layer, shape] : cases) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{5}, kLanes}) {
      SCOPED_TRACE(::testing::Message() << layer->name() << ", " << rows
                                        << " rows");
      std::vector<std::size_t> batch_shape = shape;
      batch_shape.insert(batch_shape.begin(), rows);
      const Tensor x = Tensor::randn(batch_shape, rng);
      EXPECT_EQ(lane_infer(*layer, x).vec(), layer->forward(x, false).vec());
      EXPECT_TRUE(unused_lanes_zero(layer->infer(Lanes::pack(x, 0, rows))));
    }
  }
}

// Finite-difference gradient check through a whole model.
void check_input_gradient(Model& model, double tol) {
  util::Rng rng(11);
  Tensor x = Tensor::randn({2, model.input_shape().channels,
                            model.input_shape().height,
                            model.input_shape().width}, rng, 0.5F);
  std::vector<int> labels{0, 1};
  Tensor logits = model.logits(x, false);
  LossResult loss = cross_entropy(logits, labels);
  Tensor dx = model.backward(loss.dlogits);

  const float eps = 1e-2F;
  util::Rng pick(13);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t i = pick.uniform_index(x.size());
    Tensor xp = x;
    xp[i] += eps;
    double lp = cross_entropy(model.logits(xp, false), labels).loss;
    Tensor xm = x;
    xm[i] -= eps;
    double lm = cross_entropy(model.logits(xm, false), labels).loss;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, tol) << "input index " << i;
  }
}

TEST(Gradients, MlpInputGradientMatchesFiniteDifference) {
  util::Rng rng(1);
  auto model = make_model(ArchKind::kMlp, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 2e-3);
}

TEST(Gradients, ResNetInputGradientMatchesFiniteDifference) {
  util::Rng rng(2);
  auto model = make_model(ArchKind::kResNet18Mini, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 5e-3);
}

TEST(Gradients, MobileNetInputGradientMatchesFiniteDifference) {
  util::Rng rng(3);
  auto model = make_model(ArchKind::kMobileNetV2Mini, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 5e-3);
}

TEST(Gradients, AttentionInputGradientMatchesFiniteDifference) {
  util::Rng rng(4);
  auto model = make_model(ArchKind::kSwinMini, ImageShape{3, 8, 8}, 4, rng);
  check_input_gradient(*model, 8e-3);
}

TEST(Gradients, ParameterGradientMatchesFiniteDifference) {
  util::Rng rng(5);
  auto model = make_model(ArchKind::kMlp, ImageShape{3, 8, 8}, 4, rng);
  Tensor x = Tensor::randn({2, 3, 8, 8}, rng, 0.5F);
  std::vector<int> labels{1, 3};
  for (auto* p : model->parameters()) p->zero_grad();
  LossResult loss = cross_entropy(model->logits(x, false), labels);
  model->backward(loss.dlogits);
  auto params = model->parameters();
  Parameter* w = params[0];
  const float eps = 1e-2F;
  util::Rng pick(17);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t i = pick.uniform_index(w->value.size());
    const float orig = w->value[i];
    w->value[i] = orig + eps;
    double lp = cross_entropy(model->logits(x, false), labels).loss;
    w->value[i] = orig - eps;
    double lm = cross_entropy(model->logits(x, false), labels).loss;
    w->value[i] = orig;
    EXPECT_NEAR(w->grad[i], (lp - lm) / (2.0 * eps), 2e-3);
  }
}

// Regression for the g == 0 fast path in Linear::backward: rows whose
// output gradient is entirely zero contribute nothing, and dx must come
// back exactly zero there — freshly zero-initialized, never stale values
// from an earlier backward through the same layer.
TEST(Gradients, LinearZeroGradRowsYieldExactZeroDx) {
  util::Rng rng(6);
  Linear fc(8, 4, rng);
  Tensor x = Tensor::randn({3, 8}, rng);

  // First pass with dense gradients dirties any internal accumulation.
  (void)fc.forward(x, true);
  Tensor g1 = Tensor::randn({3, 4}, rng);
  (void)fc.backward(g1);

  // Second pass: the middle sample's gradient row is all zero.
  (void)fc.forward(x, true);
  Tensor g2 = Tensor::randn({3, 4}, rng);
  for (std::size_t o = 0; o < 4; ++o) g2.at2(1, o) = 0.0F;
  Tensor dx = fc.backward(g2);

  const Tensor& w = fc.parameters()[0]->value;
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t k = 0; k < 8; ++k) {
      // Reference accumulated in the same order (ascending o, zero rows
      // skipped) so the comparison is bit-exact.
      float ref = 0.0F;
      for (std::size_t o = 0; o < 4; ++o) {
        const float g = g2.at2(i, o);
        if (g == 0.0F) continue;
        ref += g * w.at2(o, k);
      }
      EXPECT_EQ(dx.at2(i, k), ref) << "dx[" << i << "][" << k << "]";
    }
  }
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(dx.at2(1, k), 0.0F) << "stale value leaked into zero row";
  }
}

// Flatten must reshape the moved activation buffer, not deep-copy it.
TEST(Flatten, MovedForwardAndBackwardReuseTheBuffer) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(i);
  const float* px = x.data();
  Tensor y = flat.forward(std::move(x), false);
  EXPECT_EQ(y.data(), px) << "forward deep-copied the activation";
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));

  const float* py = y.data();
  Tensor dx = flat.backward(std::move(y));
  EXPECT_EQ(dx.data(), py) << "backward deep-copied the gradient";
  EXPECT_EQ(dx.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
  EXPECT_FLOAT_EQ(dx[95], 95.0F);

  // The const-ref overloads still behave like value semantics.
  Tensor x2({2, 3, 4, 4}, 1.0F);
  Tensor y2 = flat.forward(x2, false);
  EXPECT_NE(y2.data(), x2.data());
  EXPECT_EQ(x2.shape(), (std::vector<std::size_t>{2, 3, 4, 4}));
}

TEST(Loss, SoftmaxRowsSumToOne) {
  util::Rng rng(6);
  Tensor logits = Tensor::randn({4, 5}, rng, 2.0F);
  Tensor p = softmax(logits);
  for (std::size_t i = 0; i < 4; ++i) {
    float sum = 0;
    for (std::size_t j = 0; j < 5; ++j) sum += p.at2(i, j);
    EXPECT_NEAR(sum, 1.0F, 1e-5);
  }
}

TEST(Loss, CrossEntropyOfUniformIsLogK) {
  Tensor logits({2, 4}, 0.0F);
  LossResult loss = cross_entropy(logits, {0, 3});
  EXPECT_NEAR(loss.loss, std::log(4.0), 1e-6);
}

TEST(Optimizer, SgdConvergesOnQuadratic) {
  // Minimize (w - 3)^2 via Parameter machinery.
  Parameter w(Tensor({1}, 0.0F));
  Sgd opt({&w}, 0.1F, 0.0F);
  for (int i = 0; i < 200; ++i) {
    opt.zero_grad();
    w.grad[0] = 2.0F * (w.value[0] - 3.0F);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0F, 1e-3);
}

class ArchTest : public ::testing::TestWithParam<ArchKind> {};

TEST_P(ArchTest, OutputShapeAndProbabilities) {
  util::Rng rng(9);
  auto model = make_model(GetParam(), ImageShape{3, 16, 16}, 7, rng);
  Tensor x = Tensor::randn({3, 3, 16, 16}, rng, 0.3F);
  Tensor probs = model->predict_proba(x);
  EXPECT_EQ(probs.dim(0), 3u);
  EXPECT_EQ(probs.dim(1), 7u);
  for (std::size_t i = 0; i < probs.size(); ++i) {
    EXPECT_GE(probs[i], 0.0F);
    EXPECT_LE(probs[i], 1.0F);
  }
}

TEST_P(ArchTest, SaveLoadRoundTrip) {
  util::Rng rng(10);
  auto model = make_model(GetParam(), ImageShape{3, 16, 16}, 5, rng);
  auto blob = model->save_parameters();
  util::Rng rng2(999);
  auto other = make_model(GetParam(), ImageShape{3, 16, 16}, 5, rng2);
  other->load_parameters(blob);
  Tensor x = Tensor::randn({2, 3, 16, 16}, rng, 0.3F);
  Tensor a = model->logits(x, false);
  Tensor b = other->logits(x, false);
  // BatchNorm running stats are not serialized, but fresh models share the
  // init defaults, so eval outputs match.
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_FLOAT_EQ(a[i], b[i]);
}

// A model loader checks the weight blob against parameter_count before it
// builds anything, so the count must equal the built model's blob length.
TEST_P(ArchTest, ParameterCountMatchesTheBuiltModel) {
  for (const ImageShape shape : {ImageShape{3, 16, 16}, ImageShape{1, 8, 12}}) {
    for (const std::size_t classes : {std::size_t{2}, std::size_t{10}}) {
      util::Rng rng(13);
      auto model = make_model(GetParam(), shape, classes, rng);
      EXPECT_EQ(parameter_count(GetParam(), shape, classes),
                model->save_parameters().size())
          << shape.channels << "x" << shape.height << "x" << shape.width
          << ", " << classes << " classes";
    }
  }
}

// Every eval method refuses, in every build, a batch that is not
// [N, C, H, W] of the model's input shape, and accuracy() a label vector
// of the wrong length: a wrong channel count used to read past the
// activation in Release builds, where the layers' asserts are compiled out.
TEST(ModelInputs, RefusesBatchesAndLabelsThatDoNotMatch) {
  util::Rng rng(14);
  for (const ArchKind arch : {ArchKind::kResNet18Mini, ArchKind::kMlp}) {
    auto model = make_model(arch, ImageShape{3, 16, 16}, 4, rng);
    const Model& m = *model;
    for (const std::vector<std::size_t>& shape :
         {std::vector<std::size_t>{2, 1, 16, 16},
          std::vector<std::size_t>{2, 3, 8, 8},
          std::vector<std::size_t>{2, 768}}) {
      const Tensor x(shape);
      EXPECT_THROW((void)m.predict_proba(x), std::invalid_argument);
      EXPECT_THROW((void)m.features(x), std::invalid_argument);
      EXPECT_THROW((void)m.predict(x), std::invalid_argument);
      EXPECT_THROW((void)m.accuracy(x, {0, 1}), std::invalid_argument);
    }
    const Tensor ok({2, 3, 16, 16});
    EXPECT_THROW((void)m.accuracy(ok, {0}), std::invalid_argument);
    EXPECT_EQ(m.predict(ok).size(), 2u);
    EXPECT_EQ(m.predict_proba(Tensor({0, 3, 16, 16})).dim(0), 0u);
  }
}

// Model's eval methods run Layer::infer, which must return exactly what the
// caching forward(x, false) returns and write nothing, in fixed 16-row
// chunks that each run as one task of a parallel_for.  Whatever the chunk
// boundaries, the pool or the caller, features(), predict_proba() and
// predict() must match the full-batch eval forward logits(x, false)
// exactly.  Row counts cover one row, one chunk and its neighbours (15, 16,
// 17), whole and ragged multiples (47, 48, 97) and a batch above the
// layers' sharding thresholds (256), behind 1- and 4-thread pools.  Four
// threads query one const model at once while the test thread queries it
// from inside a parallel_for body, as inspect()'s ensemble members do.
TEST_P(ArchTest, InferMatchesEvalForwardFromConcurrentCallers) {
  util::Rng rng(12);
  LabeledData train;
  train.images = Tensor::randn({64, 3, 16, 16}, rng, 0.5F);
  for (std::size_t i = 0; i < 64; ++i) {
    train.labels.push_back(static_cast<int>(i % 5));
  }
  auto model = make_model(GetParam(), ImageShape{3, 16, 16}, 5, rng);
  TrainConfig tc;
  tc.epochs = 1;  // moves BatchNorm's running statistics off their init
  train_classifier(*model, train, tc);
  const Model& shared = *model;

  // A copy of the model's head (its last two parameters) maps features()
  // onto the logits, so features are checked against logits(x, false) too.
  const auto params = model->parameters();
  Linear head(model->feature_dim(), 5, rng);
  head.parameters()[0]->value = params[params.size() - 2]->value;
  head.parameters()[1]->value = params.back()->value;

  struct Answers {
    Tensor features;
    Tensor probs;
    std::vector<int> preds;
  };
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kNested = 2;
  constexpr std::size_t kRowCounts[] = {1, 15, 16, 17, 47, 48, 97, 256};
  for (const std::size_t rows : kRowCounts) {
    const Tensor x = Tensor::randn({rows, 3, 16, 16}, rng, 0.5F);
    // Each row on its own: a one-row batch runs inline, unchunked.
    std::vector<float> row_features;
    for (std::size_t i = 0; i < rows; ++i) {
      Tensor one({1, 3, 16, 16});
      std::copy(x.data() + i * one.size(), x.data() + (i + 1) * one.size(),
                one.data());
      const Tensor f = shared.features(one);
      row_features.insert(row_features.end(), f.vec().begin(),
                          f.vec().end());
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      util::ThreadPool pool(threads);
      util::ScopedPoolOverride overridden(pool);
      const Tensor logits = model->logits(x, false);
      const std::vector<float> expected_probs = softmax(logits).vec();
      std::vector<int> expected_preds(rows);
      for (std::size_t i = 0; i < rows; ++i) {
        const float* row = logits.data() + i * 5;
        expected_preds[i] =
            static_cast<int>(std::max_element(row, row + 5) - row);
      }

      std::vector<Answers> got(kCallers + kNested);
      const auto ask = [&](Answers& a) {
        a.features = shared.features(x);
        a.probs = shared.predict_proba(x);
        a.preds = shared.predict(x);
      };
      std::vector<std::thread> callers;
      for (std::size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] { ask(got[c]); });
      }
      util::parallel_for(kNested,
                         [&](std::size_t m) { ask(got[kCallers + m]); });
      for (auto& caller : callers) caller.join();
      for (const Answers& a : got) {
        EXPECT_EQ(a.probs.vec(), expected_probs)
            << rows << " rows, " << threads << " pool threads";
        EXPECT_EQ(a.preds, expected_preds)
            << rows << " rows, " << threads << " pool threads";
        EXPECT_EQ(a.features.vec(), row_features)
            << rows << " rows, " << threads << " pool threads";
        EXPECT_EQ(lane_infer(head, a.features).vec(), logits.vec())
            << rows << " rows, " << threads << " pool threads";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchTest,
    ::testing::Values(ArchKind::kResNet18Mini, ArchKind::kMobileNetV2Mini,
                      ArchKind::kMobileViTMini, ArchKind::kSwinMini,
                      ArchKind::kMlp));

TEST(Trainer, LearnsLinearlySeparableTask) {
  util::Rng rng(20);
  LabeledData data;
  data.images = Tensor({80, 3, 8, 8});
  data.labels.resize(80);
  for (std::size_t i = 0; i < 80; ++i) {
    const int cls = static_cast<int>(i % 2);
    data.labels[i] = cls;
    for (std::size_t p = 0; p < 192; ++p) {
      data.images[i * 192 + p] =
          static_cast<float>(0.5 + (cls == 0 ? -0.3 : 0.3) + 0.05 * rng.normal());
    }
  }
  auto model = make_model(ArchKind::kMlp, ImageShape{3, 8, 8}, 2, rng);
  TrainConfig tc;
  tc.epochs = 10;
  auto history = train_classifier(*model, data, tc);
  EXPECT_LT(history.epoch_loss.back(), history.epoch_loss.front());
  EXPECT_GT(model->accuracy(data.images, data.labels), 0.95);
}

}  // namespace
}  // namespace bprom::nn
