// SPSA (simultaneous perturbation stochastic approximation) — the cheap
// two-query-per-step black-box baseline used in the prompt-optimizer
// ablation bench.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace bprom::opt {

struct SpsaConfig {
  double a = 0.2;      // step-size numerator
  double c = 0.1;      // perturbation size
  double alpha = 0.602;
  double gamma = 0.101;
  std::size_t max_evaluations = 2000;
  std::uint64_t seed = 17;
};

struct SpsaResult {
  std::vector<double> best_x;
  double best_f = 0.0;
  std::size_t evaluations = 0;
};

/// Receives every point one SPSA step needs at once — the initial {x0},
/// then {x+, x-} per iteration — and returns the objective value for each.
/// Lets the caller evaluate the pair in parallel.
using SpsaBatchObjective = std::function<std::vector<double>(
    const std::vector<std::vector<double>>&)>;

SpsaResult spsa_minimize(
    const SpsaConfig& config, std::vector<double> x0,
    const std::function<double(const std::vector<double>&)>& objective);

/// Batched-objective overload.  With a zero evaluation budget nothing is
/// evaluated and the result reports best_f = +huge, evaluations = 0 (never
/// a fabricated perfect loss).
SpsaResult spsa_minimize(const SpsaConfig& config, std::vector<double> x0,
                         const SpsaBatchObjective& batch_objective);

}  // namespace bprom::opt
