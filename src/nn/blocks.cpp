#include "nn/blocks.hpp"

namespace bprom::nn {

ResidualBlock::ResidualBlock(std::size_t in_c, std::size_t out_c,
                             std::size_t stride, util::Rng& rng)
    : conv1_(in_c, out_c, 3, stride, 1, rng),
      bn1_(out_c),
      conv2_(out_c, out_c, 3, 1, 1, rng),
      bn2_(out_c) {
  if (in_c != out_c || stride != 1) {
    proj_ = std::make_unique<Conv2d>(in_c, out_c, 1, stride, 0, rng);
    proj_bn_ = std::make_unique<BatchNorm2d>(out_c);
  }
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : conv1_(other.conv1_),
      bn1_(other.bn1_),
      relu1_(other.relu1_),
      conv2_(other.conv2_),
      bn2_(other.bn2_),
      proj_(other.proj_ ? std::make_unique<Conv2d>(*other.proj_) : nullptr),
      proj_bn_(other.proj_bn_ ? std::make_unique<BatchNorm2d>(*other.proj_bn_)
                              : nullptr),
      relu_out_(other.relu_out_) {}

Tensor ResidualBlock::forward(const Tensor& x, bool train) {
  Tensor h = conv1_.forward(x, train);
  h = bn1_.forward(h, train);
  h = relu1_.forward(h, train);
  h = conv2_.forward(h, train);
  h = bn2_.forward(h, train);
  Tensor skip =
      proj_ ? proj_bn_->forward(proj_->forward(x, train), train) : x;
  h.add(skip);
  return relu_out_.forward(h, train);
}

Tensor ResidualBlock::backward(const Tensor& grad_out) {
  Tensor g = relu_out_.backward(grad_out);
  // Skip path.
  Tensor dskip = g;
  if (proj_) {
    dskip = proj_->backward(proj_bn_->backward(dskip));
  }
  // Main path.
  Tensor dmain = bn2_.backward(g);
  dmain = conv2_.backward(dmain);
  dmain = relu1_.backward(dmain);
  dmain = bn1_.backward(dmain);
  dmain = conv1_.backward(dmain);
  dmain.add(dskip);
  return dmain;
}

std::vector<Parameter*> ResidualBlock::parameters() {
  std::vector<Parameter*> params;
  for (auto* layer : std::initializer_list<Layer*>{&conv1_, &bn1_, &conv2_,
                                                   &bn2_}) {
    for (auto* p : layer->parameters()) params.push_back(p);
  }
  if (proj_) {
    for (auto* p : proj_->parameters()) params.push_back(p);
    for (auto* p : proj_bn_->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::vector<float>*> ResidualBlock::state() {
  std::vector<std::vector<float>*> buffers;
  for (auto* s : bn1_.state()) buffers.push_back(s);
  for (auto* s : bn2_.state()) buffers.push_back(s);
  if (proj_bn_) {
    for (auto* s : proj_bn_->state()) buffers.push_back(s);
  }
  return buffers;
}

DepthwiseSeparableBlock::DepthwiseSeparableBlock(std::size_t in_c,
                                                 std::size_t out_c,
                                                 std::size_t stride,
                                                 util::Rng& rng)
    : has_skip_(in_c == out_c && stride == 1),
      dw_(in_c, 3, stride, 1, rng),
      bn1_(in_c),
      pw_(in_c, out_c, 1, 1, 0, rng),
      bn2_(out_c) {}

Tensor DepthwiseSeparableBlock::forward(const Tensor& x, bool train) {
  Tensor h = dw_.forward(x, train);
  h = bn1_.forward(h, train);
  h = relu1_.forward(h, train);
  h = pw_.forward(h, train);
  h = bn2_.forward(h, train);
  if (has_skip_) h.add(x);
  return relu_out_.forward(h, train);
}

Tensor DepthwiseSeparableBlock::backward(const Tensor& grad_out) {
  Tensor g = relu_out_.backward(grad_out);
  Tensor dskip;
  if (has_skip_) dskip = g;
  Tensor d = bn2_.backward(g);
  d = pw_.backward(d);
  d = relu1_.backward(d);
  d = bn1_.backward(d);
  d = dw_.backward(d);
  if (has_skip_) d.add(dskip);
  return d;
}

std::vector<Parameter*> DepthwiseSeparableBlock::parameters() {
  std::vector<Parameter*> params;
  for (auto* layer :
       std::initializer_list<Layer*>{&dw_, &bn1_, &pw_, &bn2_}) {
    for (auto* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::vector<float>*> DepthwiseSeparableBlock::state() {
  std::vector<std::vector<float>*> buffers;
  for (auto* s : bn1_.state()) buffers.push_back(s);
  for (auto* s : bn2_.state()) buffers.push_back(s);
  return buffers;
}

}  // namespace bprom::nn
