#include "nn/optimizer.hpp"

namespace bprom::nn {

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum,
         float weight_decay)
    : Optimizer(std::move(params)),
      lr_(lr),
      momentum_(momentum),
      weight_decay_(weight_decay) {
  velocity_.reserve(params_.size());
  for (auto* p : params_) velocity_.emplace_back(p->value.shape());
}

void Sgd::step() {
  for (std::size_t pi = 0; pi < params_.size(); ++pi) {
    Parameter& p = *params_[pi];
    Tensor& vel = velocity_[pi];
    for (std::size_t i = 0; i < p.value.size(); ++i) {
      const float g = p.grad[i] + weight_decay_ * p.value[i];
      vel[i] = momentum_ * vel[i] + g;
      p.value[i] -= lr_ * vel[i];
    }
  }
}

}  // namespace bprom::nn
