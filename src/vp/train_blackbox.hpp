// Black-box prompt learning for the suspicious model: SPSA (default) or
// CMA-ES over theta, scored purely by confidence-vector queries (the
// paper's Section 5.2).
#pragma once

#include "nn/blackbox.hpp"
#include "nn/trainer.hpp"
#include "opt/cma_es.hpp"
#include "vp/prompted_model.hpp"

namespace bprom::vp {

enum class BlackBoxOptimizer {
  /// SPSA: simultaneous-perturbation stochastic gradient descent.  Two
  /// queries per step; behaves like noisy gradient descent and reaches the
  /// same adaptation regime as the shadows' white-box prompts, which is why
  /// it is the default (ablated against CMA-ES in bench_ablations).
  kSpsa,
  /// CMA-ES — the optimizer the paper names.
  kCmaEs,
};

struct BlackBoxPromptConfig {
  /// Objective-evaluation subsample drawn from the target training set.
  std::size_t eval_samples = 48;
  std::size_t max_evaluations = 400;
  double sigma0 = 1.0;
  BlackBoxOptimizer optimizer = BlackBoxOptimizer::kSpsa;
  opt::CovarianceMode mode = opt::CovarianceMode::kSeparable;
  std::uint64_t seed = 5;
};

struct BlackBoxPromptResult {
  VisualPrompt prompt;
  double final_loss = 0.0;
  /// Exact total queries issued while learning: evaluations × the eval
  /// subsample size, since each evaluation is one query batch.  All of
  /// them reach `model`.
  std::size_t queries = 0;
  /// True when `max_evaluations` could not cover a single optimizer
  /// evaluation: `prompt` is then the unoptimized zero prompt.  Callers that
  /// owe their users a typed error (the api façade) check this instead of
  /// trusting the silent default.
  bool budget_exhausted = false;
};

/// Learn theta with `config.optimizer` (SPSA by default); the objective is
/// the cross-entropy of the prompted confidence vectors on a fixed target
/// subsample.  An optimizer step's candidates (an SPSA {x+, x-} pair, a
/// CMA-ES generation) query `model` concurrently.
BlackBoxPromptResult learn_prompt_blackbox(
    const nn::BlackBoxModel& model, const nn::LabeledData& target_train,
    const BlackBoxPromptConfig& config);

}  // namespace bprom::vp
