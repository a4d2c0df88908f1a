#include "nn/arch.hpp"

#include <cassert>

#include "nn/attention.hpp"
#include "nn/blocks.hpp"

namespace bprom::nn {

std::string arch_name(ArchKind kind) {
  switch (kind) {
    case ArchKind::kResNet18Mini:
      return "ResNet18Mini";
    case ArchKind::kMobileNetV2Mini:
      return "MobileNetV2Mini";
    case ArchKind::kMobileViTMini:
      return "MobileViTMini";
    case ArchKind::kSwinMini:
      return "SwinMini";
    case ArchKind::kMlp:
      return "Mlp";
  }
  return "?";
}

namespace {

std::unique_ptr<Model> make_resnet(ImageShape input, std::size_t classes,
                                   util::Rng& rng) {
  auto backbone = std::make_unique<Sequential>();
  backbone->emplace<Conv2d>(input.channels, 4, 3, 1, 1, rng);
  backbone->emplace<BatchNorm2d>(4);
  backbone->emplace<ReLU>();
  backbone->emplace<ResidualBlock>(4, 8, 2, rng);
  backbone->emplace<ResidualBlock>(8, 16, 2, rng);
  backbone->emplace<GlobalAvgPool>();
  auto head = std::make_unique<Linear>(16, classes, rng);
  return std::make_unique<Model>(std::move(backbone), std::move(head), input,
                                 classes);
}

std::unique_ptr<Model> make_mobilenet(ImageShape input, std::size_t classes,
                                      util::Rng& rng) {
  auto backbone = std::make_unique<Sequential>();
  backbone->emplace<Conv2d>(input.channels, 8, 3, 1, 1, rng);
  backbone->emplace<BatchNorm2d>(8);
  backbone->emplace<ReLU>();
  backbone->emplace<DepthwiseSeparableBlock>(8, 16, 2, rng);
  backbone->emplace<DepthwiseSeparableBlock>(16, 16, 1, rng);
  backbone->emplace<DepthwiseSeparableBlock>(16, 32, 2, rng);
  backbone->emplace<GlobalAvgPool>();
  auto head = std::make_unique<Linear>(32, classes, rng);
  return std::make_unique<Model>(std::move(backbone), std::move(head), input,
                                 classes);
}

std::unique_ptr<Model> make_mobilevit(ImageShape input, std::size_t classes,
                                      util::Rng& rng) {
  auto backbone = std::make_unique<Sequential>();
  backbone->emplace<Conv2d>(input.channels, 8, 3, 1, 1, rng);
  backbone->emplace<BatchNorm2d>(8);
  backbone->emplace<ReLU>();
  backbone->emplace<DepthwiseSeparableBlock>(8, 16, 2, rng);
  backbone->emplace<DepthwiseSeparableBlock>(16, 16, 2, rng);
  backbone->emplace<SpatialSelfAttention>(16, rng);
  backbone->emplace<BatchNorm2d>(16);
  backbone->emplace<ReLU>();
  backbone->emplace<Conv2d>(16, 32, 1, 1, 0, rng);
  backbone->emplace<BatchNorm2d>(32);
  backbone->emplace<ReLU>();
  backbone->emplace<GlobalAvgPool>();
  auto head = std::make_unique<Linear>(32, classes, rng);
  return std::make_unique<Model>(std::move(backbone), std::move(head), input,
                                 classes);
}

std::unique_ptr<Model> make_swin(ImageShape input, std::size_t classes,
                                 util::Rng& rng) {
  auto backbone = std::make_unique<Sequential>();
  // Patchify: stride-2 conv = 2x2 patch embedding.
  backbone->emplace<Conv2d>(input.channels, 16, 2, 2, 0, rng);
  backbone->emplace<BatchNorm2d>(16);
  backbone->emplace<Gelu>();
  backbone->emplace<SpatialSelfAttention>(16, rng);
  backbone->emplace<BatchNorm2d>(16);
  // Merge: downsample + widen.
  backbone->emplace<Conv2d>(16, 32, 2, 2, 0, rng);
  backbone->emplace<BatchNorm2d>(32);
  backbone->emplace<Gelu>();
  backbone->emplace<SpatialSelfAttention>(32, rng);
  backbone->emplace<BatchNorm2d>(32);
  backbone->emplace<GlobalAvgPool>();
  auto head = std::make_unique<Linear>(32, classes, rng);
  return std::make_unique<Model>(std::move(backbone), std::move(head), input,
                                 classes);
}

std::unique_ptr<Model> make_mlp(ImageShape input, std::size_t classes,
                                util::Rng& rng) {
  auto backbone = std::make_unique<Sequential>();
  backbone->emplace<Flatten>();
  backbone->emplace<Linear>(input.size(), 64, rng);
  backbone->emplace<ReLU>();
  backbone->emplace<Linear>(64, 32, rng);
  backbone->emplace<ReLU>();
  auto head = std::make_unique<Linear>(32, classes, rng);
  return std::make_unique<Model>(std::move(backbone), std::move(head), input,
                                 classes);
}

// Floats each building block adds to save_parameters(): its parameters
// plus its state (BatchNorm's running mean and variance).  They mirror the
// builders above; parameter_count's test holds them to make_model.
std::size_t conv_floats(std::size_t in_c, std::size_t out_c,
                        std::size_t kernel) {
  return out_c * in_c * kernel * kernel + out_c;
}

std::size_t batchnorm_floats(std::size_t c) { return 4 * c; }

std::size_t linear_floats(std::size_t in, std::size_t out) {
  return out * in + out;
}

std::size_t attention_floats(std::size_t c) { return 4 * c * c; }

std::size_t residual_floats(std::size_t in_c, std::size_t out_c) {
  // Every residual block in use changes width, so it carries a projection.
  return conv_floats(in_c, out_c, 3) + batchnorm_floats(out_c) +
         conv_floats(out_c, out_c, 3) + batchnorm_floats(out_c) +
         conv_floats(in_c, out_c, 1) + batchnorm_floats(out_c);
}

std::size_t separable_floats(std::size_t in_c, std::size_t out_c) {
  const std::size_t depthwise = 9 * in_c + in_c;  // 3x3 taps and a bias
  return depthwise + batchnorm_floats(in_c) + conv_floats(in_c, out_c, 1) +
         batchnorm_floats(out_c);
}

}  // namespace

std::size_t parameter_count(ArchKind kind, ImageShape input,
                            std::size_t classes) {
  const std::size_t c = input.channels;
  switch (kind) {
    case ArchKind::kResNet18Mini:
      return conv_floats(c, 4, 3) + batchnorm_floats(4) +
             residual_floats(4, 8) + residual_floats(8, 16) +
             linear_floats(16, classes);
    case ArchKind::kMobileNetV2Mini:
      return conv_floats(c, 8, 3) + batchnorm_floats(8) +
             separable_floats(8, 16) + separable_floats(16, 16) +
             separable_floats(16, 32) + linear_floats(32, classes);
    case ArchKind::kMobileViTMini:
      return conv_floats(c, 8, 3) + batchnorm_floats(8) +
             separable_floats(8, 16) + separable_floats(16, 16) +
             attention_floats(16) + batchnorm_floats(16) +
             conv_floats(16, 32, 1) + batchnorm_floats(32) +
             linear_floats(32, classes);
    case ArchKind::kSwinMini:
      return conv_floats(c, 16, 2) + batchnorm_floats(16) +
             attention_floats(16) + batchnorm_floats(16) +
             conv_floats(16, 32, 2) + batchnorm_floats(32) +
             attention_floats(32) + batchnorm_floats(32) +
             linear_floats(32, classes);
    case ArchKind::kMlp:
      return linear_floats(input.size(), 64) + linear_floats(64, 32) +
             linear_floats(32, classes);
  }
  return 0;
}

std::unique_ptr<Model> make_model(ArchKind kind, ImageShape input,
                                  std::size_t classes, util::Rng& rng) {
  std::unique_ptr<Model> model;
  switch (kind) {
    case ArchKind::kResNet18Mini:
      model = make_resnet(input, classes, rng);
      break;
    case ArchKind::kMobileNetV2Mini:
      model = make_mobilenet(input, classes, rng);
      break;
    case ArchKind::kMobileViTMini:
      model = make_mobilevit(input, classes, rng);
      break;
    case ArchKind::kSwinMini:
      model = make_swin(input, classes, rng);
      break;
    case ArchKind::kMlp:
      model = make_mlp(input, classes, rng);
      break;
  }
  assert(model);
  if (model) model->set_arch(kind);
  return model;
}

}  // namespace bprom::nn
