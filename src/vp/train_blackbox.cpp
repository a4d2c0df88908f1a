#include "vp/train_blackbox.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "data/ops.hpp"
#include "opt/spsa.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace bprom::vp {

BlackBoxPromptResult learn_prompt_blackbox(
    const nn::BlackBoxModel& model, const nn::LabeledData& target_train,
    const BlackBoxPromptConfig& config) {
  VisualPrompt prompt(model.input_shape(), PromptMode::kAdditiveCoarse);
  util::Rng rng(config.seed);

  // Fixed evaluation subsample (same for every candidate, so fitness is a
  // deterministic function of theta — CMA-ES assumes a stationary objective).
  const std::size_t n_eval = std::min(config.eval_samples, target_train.size());
  nn::LabeledData eval_set = data::subset(
      target_train,
      rng.sample_without_replacement(target_train.size(), n_eval));

  const std::size_t k = model.num_classes();

  const auto loss_on = [&](const std::vector<double>& theta) -> double {
    VisualPrompt candidate(model.input_shape(), PromptMode::kAdditiveCoarse);
    candidate.set_theta(theta);
    Tensor probs = model.predict_proba(candidate.apply(eval_set.images));
    double loss = 0.0;
    for (std::size_t i = 0; i < n_eval; ++i) {
      const auto label = static_cast<std::size_t>(eval_set.labels[i]);
      assert(label < k);
      loss -= std::log(
          std::max(static_cast<double>(probs.data()[i * k + label]), 1e-9));
    }
    return loss / static_cast<double>(n_eval);
  };

  // A generation's candidates are queried concurrently on `model`.  Each
  // fitness depends only on theta (the eval subsample is fixed), so the
  // values do not depend on the thread count.
  const auto eval_batch =
      [&](const std::vector<std::vector<double>>& thetas) {
        std::vector<double> fitness(thetas.size());
        util::parallel_for(thetas.size(), [&](std::size_t i) {
          fitness[i] = loss_on(thetas[i]);
        });
        return fitness;
      };

  // best_f comes straight from the optimizer result: with a zero evaluation
  // budget both optimizers report +huge, never a fabricated perfect loss.
  std::vector<double> best_x;
  double best_f = 0.0;
  std::size_t evaluations = 0;
  if (config.optimizer == BlackBoxOptimizer::kCmaEs) {
    opt::CmaEsConfig cma;
    cma.dim = prompt.num_params();
    cma.sigma0 = config.sigma0;
    cma.mode = config.mode;
    cma.max_evaluations = config.max_evaluations;
    cma.seed = config.seed ^ 0xB1ACBB0FULL;
    opt::CmaEs solver(cma, std::vector<double>(cma.dim, 0.0));
    auto result = solver.optimize(opt::CmaEs::BatchObjective(eval_batch));
    best_x = std::move(result.best_x);
    best_f = result.best_f;
    evaluations = result.evaluations;
  } else {
    opt::SpsaConfig spsa;
    spsa.max_evaluations = config.max_evaluations;
    spsa.seed = config.seed ^ 0xB1ACBB0FULL;
    auto result =
        opt::spsa_minimize(spsa, std::vector<double>(prompt.num_params(), 0.0),
                           opt::SpsaBatchObjective(eval_batch));
    best_x = std::move(result.best_x);
    best_f = result.best_f;
    evaluations = result.evaluations;
  }

  prompt.set_theta(best_x);
  // Every evaluation is one query batch of n_eval images.
  BlackBoxPromptResult out{std::move(prompt), best_f, evaluations * n_eval,
                           /*budget_exhausted=*/evaluations == 0};
  return out;
}

}  // namespace bprom::vp
