// Table 2: prompted accuracy vs number of target classes (1, 2, 3).
#include "common.hpp"
#include "vp/train_whitebox.hpp"
int main() {
  using namespace bench;
  auto env = Env::make();
  util::Rng rng(11);
  auto dt_train = data::subset(env.stl10.train,
                               rng.sample_without_replacement(env.stl10.train.size(), 256));
  util::TablePrinter table({"# target classes", "1", "2", "3"});
  for (auto* src : {&env.cifar10, &env.gtsrb}) {
    std::vector<std::string> row = {src->profile.name};
    for (std::size_t n_targets = 1; n_targets <= 3; ++n_targets) {
      double acc = 0.0;
      const std::size_t reps = env.scale.population_per_side >= 4 ? 3 : 2;
      for (std::size_t r = 0; r < reps; ++r) {
        util::Rng mr(500 + 10 * n_targets + r);
        std::vector<attacks::AttackConfig> cfgs;
        for (std::size_t t = 0; t < n_targets; ++t) {
          auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets);
          atk.target_class = static_cast<int>(t);
          atk.poison_rate = 0.15;
          atk.seed = mr.next_u64();
          cfgs.push_back(atk);
        }
        auto train = data::subset(src->train, mr.sample_without_replacement(
            src->train.size(), env.scale.suspicious_train));
        auto poisoned = attacks::poison_dataset_multi(train, cfgs, mr);
        auto model = nn::make_model(nn::ArchKind::kResNet18Mini, src->profile.shape,
                                    src->profile.classes, mr);
        nn::TrainConfig tc; tc.epochs = env.scale.suspicious_epochs; tc.seed = mr.next_u64();
        nn::train_classifier(*model, poisoned.data, tc);
        vp::WhiteBoxPromptConfig pc; pc.epochs = env.scale.prompt_epochs; pc.seed = mr.next_u64();
        auto prompt = vp::learn_prompt_whitebox(*model, dt_train, pc);
        nn::BlackBoxAdapter box(*model);
        vp::PromptedModel pm(box, prompt);
        pm.set_label_mapping(vp::fit_frequency_label_mapping(
            pm.predict_proba(dt_train.images), dt_train.labels, 10));
        acc += pm.accuracy(env.stl10.test);
      }
      row.push_back(util::cell(acc / (env.scale.population_per_side >= 4 ? 3.0 : 2.0)));
    }
    table.add_row(row);
  }
  std::printf("== Table 2: prompted accuracy vs # target classes ==\n");
  table.print();
  return 0;
}
