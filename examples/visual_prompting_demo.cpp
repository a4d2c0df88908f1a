// Pure visual-prompting demo (no backdoors): adapt a frozen cifar10-like
// classifier to the stl10-like task, comparing white-box backprop prompting
// against black-box SPSA / CMA-ES at equal query budgets.
#include <cstdio>
#include "core/experiment.hpp"
#include "vp/train_blackbox.hpp"
#include "vp/train_whitebox.hpp"

int main() {
  using namespace bprom;
  auto scale = core::ExperimentScale::current();
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 1);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 2);

  std::printf("== Visual prompting: frozen %s model -> %s task ==\n",
              src.profile.name.c_str(), tgt.profile.name.c_str());
  auto frozen = core::train_clean_model(src, nn::ArchKind::kResNet18Mini, 55, scale);
  std::printf("frozen source model accuracy: %.3f\n\n", frozen.clean_accuracy);

  util::Rng rng(5);
  auto dt_train = data::subset(
      tgt.train, rng.sample_without_replacement(tgt.train.size(), 256));
  nn::BlackBoxAdapter box(*frozen.model);

  auto report = [&](const char* name, const vp::VisualPrompt& prompt,
                    std::size_t queries) {
    vp::PromptedModel pm(box, prompt);
    pm.set_label_mapping(vp::fit_frequency_label_mapping(
        pm.predict_proba(dt_train.images), dt_train.labels, 10));
    std::printf("%-24s target accuracy %.3f  (queries: %zu)\n", name,
                pm.accuracy(tgt.test), queries);
  };

  report("no prompt (mapping only)",
         vp::VisualPrompt(src.profile.shape, vp::PromptMode::kAdditiveCoarse), 0);

  vp::WhiteBoxPromptConfig wc;
  wc.epochs = scale.prompt_epochs;
  auto wb = vp::learn_prompt_whitebox(*frozen.model, dt_train, wc);
  report("white-box backprop", wb, 0);

  for (auto opt : {vp::BlackBoxOptimizer::kSpsa, vp::BlackBoxOptimizer::kCmaEs}) {
    vp::BlackBoxPromptConfig bc;
    bc.optimizer = opt;
    bc.max_evaluations = scale.blackbox_evals;
    auto result = vp::learn_prompt_blackbox(box, dt_train, bc);
    report(opt == vp::BlackBoxOptimizer::kSpsa ? "black-box SPSA"
                                               : "black-box CMA-ES",
           result.prompt, result.queries);
  }
  return 0;
}
