// Black-box query interface.
//
// The paper's defender may only query the suspicious model for confidence
// vectors.  Every detection component that must respect that boundary takes
// a BlackBoxModel, so the type system enforces black-box discipline: there
// is no way to reach gradients or parameters through this interface.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "nn/model.hpp"

namespace bprom::nn {

class BlackBoxModel {
 public:
  virtual ~BlackBoxModel() = default;

  /// Softmax confidence vectors [N, K] for an image batch [N, C, H, W].
  /// May be called concurrently, as any remote MLaaS endpoint may be:
  /// inspect() and learn_prompt_blackbox query one box from several pool
  /// threads at once.
  virtual Tensor predict_proba(const Tensor& images) const = 0;

  [[nodiscard]] virtual std::size_t num_classes() const = 0;
  [[nodiscard]] virtual ImageShape input_shape() const = 0;

  /// Number of queries served so far (for query-budget accounting).
  [[nodiscard]] virtual std::size_t query_count() const = 0;

  /// Returns nullptr, and nothing in the library calls it.  It stays
  /// declared only because the audit benchmark's TracedBlackBox
  /// (benchmark/trace.hpp) overrides it.
  [[nodiscard]] virtual std::unique_ptr<BlackBoxModel> replicate() const {
    return nullptr;
  }
};

/// Adapter exposing a concrete Model through the black-box interface:
/// nothing beyond confidence vectors crosses it.  Model::predict_proba
/// writes no state, so concurrent queries are safe, and it runs a query's
/// rows as fixed 16-row chunks on the pool, so even a single query of a
/// few dozen rows spreads over several cores.  The adapter either borrows
/// a caller-owned model or owns one outright (what serving code uses for
/// models loaded from disk).
class BlackBoxAdapter final : public BlackBoxModel {
 public:
  /// Borrow `model`; it must outlive the adapter.
  explicit BlackBoxAdapter(const Model& model) : model_(&model) {}

  /// Own `model`.
  explicit BlackBoxAdapter(std::unique_ptr<Model> model)
      : owned_(std::move(model)), model_(owned_.get()) {}

  /// Moves carry the query tally over (the atomic member suppresses the
  /// implicit move).  Only valid while no other thread queries `other`,
  /// like any move.
  BlackBoxAdapter(BlackBoxAdapter&& other) noexcept
      : owned_(std::move(other.owned_)),
        model_(other.model_),
        // relaxed: moves require external quiescence anyway (no concurrent
        // queries on `other`), so the read needs atomicity only in form.
        queries_(other.queries_.load(std::memory_order_relaxed)) {
    other.model_ = nullptr;
  }

  Tensor predict_proba(const Tensor& images) const override {
    // relaxed: a pure tally — totals are read after the concurrent queries
    // join (which synchronizes), never used to order other memory.
    queries_.fetch_add(images.dim(0), std::memory_order_relaxed);
    return model_->predict_proba(images);
  }

  [[nodiscard]] std::size_t num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] ImageShape input_shape() const override {
    return model_->input_shape();
  }
  [[nodiscard]] std::size_t query_count() const override {
    // relaxed: callers read totals only at join points (see fetch_add).
    return queries_.load(std::memory_order_relaxed);
  }

 private:
  std::unique_ptr<Model> owned_;  // null when the model is borrowed
  const Model* model_;
  // Relaxed atomic: concurrent queries each add their rows.  Counting
  // needs no ordering, only atomicity.
  mutable std::atomic<std::size_t> queries_{0};
};

}  // namespace bprom::nn
