#include "vp/train_blackbox.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>

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
  const std::size_t query_base = model.query_count();

  const auto loss_on = [&](const nn::BlackBoxModel& box,
                           const std::vector<double>& theta) -> double {
    VisualPrompt candidate(model.input_shape(), PromptMode::kAdditiveCoarse);
    candidate.set_theta(theta);
    Tensor probs = box.predict_proba(candidate.apply(eval_set.images));
    double loss = 0.0;
    for (std::size_t i = 0; i < n_eval; ++i) {
      const auto label = static_cast<std::size_t>(eval_set.labels[i]);
      assert(label < k);
      loss -= std::log(
          std::max(static_cast<double>(probs.data()[i * k + label]), 1e-9));
    }
    return loss / static_cast<double>(n_eval);
  };

  // Candidate evaluation fans out over model replicas when the black box
  // supports replicate() and more than one worker is available.  Each
  // candidate's fitness depends only on theta (replicas are exact deep
  // copies and the eval subsample is fixed), and every evaluation costs
  // exactly one batch of n_eval queries no matter which replica serves it,
  // so neither fitness values nor query totals depend on the thread count
  // or the replica count.
  std::vector<std::unique_ptr<nn::BlackBoxModel>> replicas;
  const auto make_replicas = [&](std::size_t generation_size) {
    const std::size_t want =
        std::min(generation_size, util::default_pool().size());
    if (want < 2) return;
    replicas.reserve(want);
    for (std::size_t r = 0; r < want; ++r) {
      auto replica = model.replicate();
      if (!replica) {
        replicas.clear();
        return;
      }
      replicas.push_back(std::move(replica));
    }
  };

  const auto eval_batch =
      [&](const std::vector<std::vector<double>>& thetas) {
        std::vector<double> fitness(thetas.size());
        if (replicas.empty() || thetas.size() < 2) {
          const nn::BlackBoxModel& box =
              replicas.empty() ? model : *replicas[0];
          for (std::size_t i = 0; i < thetas.size(); ++i) {
            fitness[i] = loss_on(box, thetas[i]);
          }
          return fitness;
        }
        const std::size_t shards = std::min(thetas.size(), replicas.size());
        util::parallel_for(shards, [&](std::size_t s) {
          const std::size_t lo = s * thetas.size() / shards;
          const std::size_t hi = (s + 1) * thetas.size() / shards;
          for (std::size_t i = lo; i < hi; ++i) {
            fitness[i] = loss_on(*replicas[s], thetas[i]);
          }
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
    make_replicas(solver.lambda());
    auto result = solver.optimize(opt::CmaEs::BatchObjective(eval_batch));
    best_x = std::move(result.best_x);
    best_f = result.best_f;
    evaluations = result.evaluations;
  } else {
    opt::SpsaConfig spsa;
    spsa.max_evaluations = config.max_evaluations;
    spsa.seed = config.seed ^ 0xB1ACBB0FULL;
    make_replicas(2);  // SPSA evaluates {x+, x-} pairs
    auto result =
        opt::spsa_minimize(spsa, std::vector<double>(prompt.num_params(), 0.0),
                           opt::SpsaBatchObjective(eval_batch));
    best_x = std::move(result.best_x);
    best_f = result.best_f;
    evaluations = result.evaluations;
  }

  std::size_t replica_queries = 0;
  for (const auto& replica : replicas) {
    replica_queries += replica->query_count();
  }

  prompt.set_theta(best_x);
  BlackBoxPromptResult out{std::move(prompt), best_f,
                           (model.query_count() - query_base) + replica_queries,
                           /*budget_exhausted=*/evaluations == 0};
  return out;
}

}  // namespace bprom::vp
