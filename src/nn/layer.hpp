// Layer abstraction for the from-scratch training framework.
//
// The framework is deliberately layer-graph based (not tape autograd):
// each layer caches what it needs during forward and produces the input
// gradient during backward.  Models are small and trained on CPU, so
// clarity and testability win over generality.
//
// Threading: forward()/backward() cache state in the layer, so one thread
// at a time drives that training path.  infer() writes nothing, so any
// number of threads may call it at once, on the same instance.  Within one
// call, large batch loops additionally shard over the pool with disjoint
// outputs (see layers.cpp).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace bprom::nn {

using tensor::Tensor;

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  Tensor value;
  Tensor grad;

  explicit Parameter(Tensor v) : value(std::move(v)), grad(value.shape()) {}
  void zero_grad() { grad.zero(); }
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; `train` toggles batch-stat collection (BatchNorm).
  virtual Tensor forward(const Tensor& x, bool train) = 0;

  /// Rvalue forward: chain drivers (Sequential, Model) hand the activation
  /// over by value so shape-only layers (Flatten) can reshape the moved
  /// buffer instead of deep-copying it.  Compute layers keep the const-ref
  /// overload; this default just binds the argument as an lvalue.
  virtual Tensor forward(Tensor&& x, bool train) { return forward(x, train); }

  /// Inference forward: returns exactly what forward(x, false) returns
  /// and writes no member, so it is safe to call concurrently.  Nothing
  /// may backward() through it.
  [[nodiscard]] virtual Tensor infer(const Tensor& x) const = 0;

  /// Backward pass given dL/d(output); returns dL/d(input) and accumulates
  /// parameter gradients.  Must be called after a matching forward.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Rvalue backward, mirroring the rvalue forward.
  virtual Tensor backward(Tensor&& grad_out) { return backward(grad_out); }

  /// Trainable parameters (non-owning, stable across calls).
  virtual std::vector<Parameter*> parameters() { return {}; }

  /// Persistent non-trainable state (non-owning, stable across calls):
  /// buffers that must survive save/load for eval-mode correctness, e.g.
  /// BatchNorm running statistics.  Forward caches are NOT state.
  virtual std::vector<std::vector<float>*> state() { return {}; }

  /// Deep copy: parameters, state, and structure are duplicated, so
  /// training either copy leaves the other unchanged.
  [[nodiscard]] virtual std::unique_ptr<Layer> clone() const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

}  // namespace bprom::nn
