// Ordered container of layers.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace bprom::nn {

class Sequential final : public Layer {
 public:
  Sequential() = default;

  void push(std::unique_ptr<Layer> layer) {
    layers_.push_back(std::move(layer));
  }

  template <typename L, typename... Args>
  L& emplace(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L& ref = *layer;
    layers_.push_back(std::move(layer));
    return ref;
  }

  Tensor forward(const Tensor& x, bool train) override;
  Tensor forward(Tensor&& x, bool train) override;
  [[nodiscard]] Lanes infer(const Lanes& x) const override;
  [[nodiscard]] Lanes infer(Lanes&& x) const override;
  Tensor backward(const Tensor& grad_out) override;
  Tensor backward(Tensor&& grad_out) override;
  std::vector<Parameter*> parameters() override;
  std::vector<std::vector<float>*> state() override;
  [[nodiscard]] std::unique_ptr<Layer> clone() const override;
  [[nodiscard]] std::string name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace bprom::nn
