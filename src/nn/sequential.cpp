#include "nn/sequential.hpp"

#include <utility>

#include "nn/layers.hpp"

namespace bprom::nn {
namespace {

/// Runs layers[next] on x and moves `next` past it, or, when layers[next]
/// is a Conv2d followed by a BatchNorm2d, runs the pair (and a ReLU after
/// it) as one fused call and moves past all of them.
template <typename In>
Lanes infer_step(const std::vector<std::unique_ptr<Layer>>& layers,
                 std::size_t& next, In&& x) {
  const Layer& layer = *layers[next++];
  const auto* conv = dynamic_cast<const Conv2d*>(&layer);
  const auto* bn = conv != nullptr && next < layers.size()
                       ? dynamic_cast<const BatchNorm2d*>(layers[next].get())
                       : nullptr;
  if (bn == nullptr) return layer.infer(std::forward<In>(x));
  ++next;
  const bool relu = next < layers.size() &&
                    dynamic_cast<const ReLU*>(layers[next].get()) != nullptr;
  if (relu) ++next;
  return conv->infer_fused(x, *bn, relu);
}

}  // namespace

Tensor Sequential::forward(const Tensor& x, bool train) {
  return forward(Tensor(x), train);
}

Tensor Sequential::forward(Tensor&& x, bool train) {
  // Activations move down the chain so shape-only layers (Flatten) can
  // reshape the buffer in place instead of copying it.
  Tensor h = std::move(x);
  for (auto& layer : layers_) h = layer->forward(std::move(h), train);
  return h;
}

Lanes Sequential::infer(const Lanes& x) const {
  if (layers_.empty()) return x;
  std::size_t next = 0;
  Lanes h = infer_step(layers_, next, x);
  while (next < layers_.size()) h = infer_step(layers_, next, std::move(h));
  return h;
}

Lanes Sequential::infer(Lanes&& x) const {
  // The chunk moves down the chain, so elementwise layers work in place.
  Lanes h = std::move(x);
  std::size_t next = 0;
  while (next < layers_.size()) h = infer_step(layers_, next, std::move(h));
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  return backward(Tensor(grad_out));
}

Tensor Sequential::backward(Tensor&& grad_out) {
  Tensor g = std::move(grad_out);
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(std::move(g));
  }
  return g;
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (auto* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

std::vector<std::vector<float>*> Sequential::state() {
  std::vector<std::vector<float>*> buffers;
  for (auto& layer : layers_) {
    for (auto* s : layer->state()) buffers.push_back(s);
  }
  return buffers;
}

std::unique_ptr<Layer> Sequential::clone() const {
  auto copy = std::make_unique<Sequential>();
  for (const auto& layer : layers_) copy->push(layer->clone());
  return copy;
}

}  // namespace bprom::nn
