// Layer abstraction for the from-scratch training framework.
//
// The framework is deliberately layer-graph based (not tape autograd):
// each layer caches what it needs during forward and produces the input
// gradient during backward.  Models are small and trained on CPU, so
// clarity and testability win over generality.
//
// Two forward paths.  forward()/backward() is the training path over
// row-major [N, ...] tensors: it caches state in the layer, so one thread at
// a time drives it, and its large batch loops shard over the pool with
// disjoint outputs (see layers.cpp).  infer() is the inference path over
// one lane chunk (tensor/lanes.hpp: up to 16 rows, feature-major with the
// row innermost): it writes nothing, so any number of threads may call it
// at once, on the same instance.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/lanes.hpp"
#include "tensor/tensor.hpp"

namespace bprom::nn {

using tensor::Lanes;
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

  /// Inference forward over one lane chunk.  Row r of the result is, bit
  /// for bit, row r of forward(X, false) for the batch X of the chunk's
  /// rows: every output sums the same products in the same order, lane by
  /// lane.  Unused lanes stay zero.  Writes no member, so it is safe to
  /// call concurrently; nothing may backward() through it.  It may use the
  /// calling thread's util::Scratch arena (Conv2d's padded input), never
  /// across a parallel_for.  Sequential and the blocks run a convolution
  /// and the BatchNorm2d (and ReLU) after it as one call, whose epilogue
  /// does the same per-element arithmetic as their own infer().
  [[nodiscard]] virtual Lanes infer(const Lanes& x) const = 0;

  /// Rvalue infer: chain drivers hand the chunk over by value so
  /// elementwise layers (BatchNorm, ReLU, GELU, Flatten) can work in the
  /// moved buffer.  This default just binds the argument as an lvalue.
  [[nodiscard]] virtual Lanes infer(Lanes&& x) const { return infer(x); }

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
