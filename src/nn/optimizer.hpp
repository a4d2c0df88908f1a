// First-order optimizers over registered Parameters.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace bprom::nn {

class Optimizer {
 public:
  explicit Optimizer(std::vector<Parameter*> params)
      : params_(std::move(params)) {}
  virtual ~Optimizer() = default;

  virtual void step() = 0;
  void zero_grad() {
    for (auto* p : params_) p->zero_grad();
  }

 protected:
  std::vector<Parameter*> params_;
};

class Sgd final : public Optimizer {
 public:
  Sgd(std::vector<Parameter*> params, float lr, float momentum = 0.9F,
      float weight_decay = 0.0F);
  void step() override;
  void set_lr(float lr) { lr_ = lr; }
  [[nodiscard]] float lr() const { return lr_; }

 private:
  float lr_;
  float momentum_;
  float weight_decay_;
  std::vector<Tensor> velocity_;
};

}  // namespace bprom::nn
