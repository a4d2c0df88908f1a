// Ablations of the detector's design choices: meta-model choice, prompt
// optimizer, query count, prompt ensembling.
#include "common.hpp"
int main() {
  using namespace bench;
  auto env = Env::make();
  const auto arch = nn::ArchKind::kResNet18Mini;
  auto run = [&](const char* name, core::BpromConfig cfg) {
    core::BpromDetector detector(cfg);
    util::Rng rng(7 ^ 0xDE7EC7ULL);
    auto reserved = data::sample_fraction(env.cifar10.test, 0.10, rng);
    auto dt_train = data::subset(env.stl10.train,
        rng.sample_without_replacement(env.stl10.train.size(), 256));
    detector.fit(reserved, 10, dt_train, env.stl10.test);
    auto cell = bprom_cell(detector, env.cifar10, attacks::AttackKind::kBadNets,
                           arch, 1600, env.scale);
    std::printf("%-28s auroc %.3f f1 %.3f\n", name, cell.auroc, cell.f1);
  };
  auto base = core::default_bprom_config(env.scale, arch, 7);
  run("default (SPSA, summaries)", base);
  {
    auto cfg = base;
    cfg.prompt_blackbox.optimizer = vp::BlackBoxOptimizer::kCmaEs;
    run("CMA-ES prompting", cfg);
  }
  {
    auto cfg = base;
    cfg.include_query_features = true;
    run("+ raw query features", cfg);
  }
  {
    auto cfg = base;
    cfg.prompt_ensemble = 1;
    run("no prompt ensemble", cfg);
  }
  {
    auto cfg = base;
    cfg.query_samples = 4;
    run("q = 4 queries", cfg);
  }
  {
    auto cfg = base;
    cfg.prompt_shadows_blackbox = false;
    run("white-box shadow prompts", cfg);
  }
  return 0;
}
