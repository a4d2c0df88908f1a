#include "nn/sequential.hpp"

namespace bprom::nn {

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
  Lanes h = layers_.front()->infer(x);
  for (std::size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i]->infer(std::move(h));
  }
  return h;
}

Lanes Sequential::infer(Lanes&& x) const {
  // The chunk moves down the chain, so elementwise layers work in place.
  Lanes h = std::move(x);
  for (const auto& layer : layers_) h = layer->infer(std::move(h));
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
