// Training framework tests: tensor ops, im2col, gradient checks via finite
// differences, loss, optimizers, architecture factory, training convergence.
#include <gtest/gtest.h>
#include <algorithm>
#include <cmath>
#include <vector>
#include "nn/arch.hpp"
#include "nn/blocks.hpp"
#include "nn/attention.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
namespace bprom::nn {
namespace {

TEST(Tensor, ShapeAndAccessors) {
  Tensor t({2, 3, 4, 4});
  EXPECT_EQ(t.size(), 96u);
  t.at4(1, 2, 3, 3) = 7.0F;
  EXPECT_FLOAT_EQ(t[95], 7.0F);
}

TEST(Tensor, StackAndSlice) {
  Tensor a({2, 2}, 1.0F);
  Tensor b({2, 2}, 2.0F);
  Tensor s = Tensor::stack({a, b});
  EXPECT_EQ(s.dim(0), 2u);
  Tensor back = s.slice_sample(1);
  EXPECT_FLOAT_EQ(back[0], 2.0F);
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

TEST(ConvForward, MatchesDirectLoopBitwise) {
  util::Rng rng(21);
  for (const ConvCase& cc : kConvCases) {
    SCOPED_TRACE(::testing::Message()
                 << "in_c " << cc.in_c << " k " << cc.kernel << " s "
                 << cc.stride << " pad " << cc.pad << " " << cc.h << "x"
                 << cc.w);
    const tensor::ConvGeometry g{cc.in_c, cc.h, cc.w, cc.kernel, cc.stride,
                                 cc.pad};
    Tensor x = Tensor::randn({2, cc.in_c, cc.h, cc.w}, rng);

    Conv2d conv(cc.in_c, cc.out_c, cc.kernel, cc.stride, cc.pad, rng);
    std::vector<Parameter*> cp = conv.parameters();
    randomize(*cp[1], rng);
    EXPECT_EQ(conv.forward(x, false).vec(),
              conv2d_reference(x, cp[0]->value, cp[1]->value, g, cc.out_c));

    DepthwiseConv2d dw(cc.in_c, cc.kernel, cc.stride, cc.pad, rng);
    std::vector<Parameter*> dp = dw.parameters();
    randomize(*dp[1], rng);
    EXPECT_EQ(dw.forward(x, false).vec(),
              depthwise_reference(x, dp[0]->value, dp[1]->value, g));
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

// Regression for the old -1e30F pooling sentinel: windows whose inputs are
// all below it must still return their true maximum (and route the
// backward gradient to the argmax, not to index 0).
TEST(MaxPool, PoolsWindowsBelowOldSentinel) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, -2e30F);
  x.at4(0, 0, 1, 1) = -1.5e30F;  // the true maximum, still below -1e30
  Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.size(), 1u);
  EXPECT_FLOAT_EQ(y[0], -1.5e30F);

  Tensor g({1, 1, 1, 1}, 1.0F);
  Tensor dx = pool.backward(g);
  EXPECT_FLOAT_EQ(dx.at4(0, 0, 1, 1), 1.0F);
  EXPECT_FLOAT_EQ(dx.at4(0, 0, 0, 0), 0.0F);
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

TEST(Optimizer, AdamConvergesOnQuadratic) {
  Parameter w(Tensor({1}, 0.0F));
  Adam opt({&w}, 0.1F);
  for (int i = 0; i < 300; ++i) {
    opt.zero_grad();
    w.grad[0] = 2.0F * (w.value[0] - 3.0F);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], 3.0F, 1e-2);
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
  EXPECT_GT(evaluate_accuracy(*model, data), 0.95);
}

}  // namespace
}  // namespace bprom::nn
