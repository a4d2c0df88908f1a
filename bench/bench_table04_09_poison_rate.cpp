// Tables 4 + 9: prompted accuracy, ASR and AUROC vs poison rate (5/10/20 %).
#include "common.hpp"
#include "vp/train_whitebox.hpp"
int main() {
  using namespace bench;
  auto env = Env::make();
  const auto arch = nn::ArchKind::kResNet18Mini;
  util::Rng rng(17);
  auto dt_train = data::subset(env.stl10.train,
                               rng.sample_without_replacement(env.stl10.train.size(), 256));
  const double rates[] = {0.05, 0.10, 0.20};
  for (auto* src : {&env.cifar10, &env.gtsrb}) {
    util::TablePrinter table({"rate", "Blend acc", "Blend ASR", "Blend AUROC",
                              "AdapBlend acc", "AdapBlend ASR", "AdapBlend AUROC"});
    auto detector = core::fit_detector(*src, env.stl10, 0.10, arch, 7, env.scale);
    for (auto r : rates) {
      std::vector<std::string> row = {util::cell(r, 2)};
      for (auto kind : {attacks::AttackKind::kBlend, attacks::AttackKind::kAdapBlend}) {
        auto atk = attacks::AttackConfig::defaults(kind);
        atk.poison_rate = r;
        auto pop = core::build_population(*src, atk, arch, env.scale.population_per_side,
                                          1100 + (int)(100 * r) + 10 * (int)kind, env.scale);
        double asr = 0, acc = 0; int nb = 0;
        for (auto& m : pop) if (m.backdoored) { asr += m.asr; ++nb; }
        asr /= nb;
        for (auto& m : pop) {
          if (!m.backdoored) continue;
          vp::WhiteBoxPromptConfig pc; pc.epochs = env.scale.prompt_epochs;
          auto prompt = vp::learn_prompt_whitebox(*m.model, dt_train, pc);
          nn::BlackBoxAdapter box(*m.model);
          vp::PromptedModel pm(box, prompt);
          pm.set_label_mapping(vp::fit_frequency_label_mapping(
              pm.predict_proba(dt_train.images), dt_train.labels, 10));
          acc = pm.accuracy(env.stl10.test);
          break;
        }
        auto scores = core::score_population(detector, pop);
        row.push_back(util::cell(acc));
        row.push_back(util::cell(asr));
        row.push_back(util::cell(scores.auroc()));
      }
      table.add_row(row);
    }
    std::printf("== Tables 4+9 (%s): poison rate sweep ==\n", src->profile.name.c_str());
    table.print();
  }
  return 0;
}
