// Quickstart: train one clean and one BadNets-backdoored classifier on the
// cifar10-like substrate, then ask BPROM which one is infected.
//
// Usage: quickstart            (BPROM_SCALE=0|1|2 controls cost)
#include <cstdio>

#include "core/experiment.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace bprom;
  const auto scale = core::ExperimentScale::current();
  util::Stopwatch clock;

  std::printf("== BPROM quickstart ==\n");
  std::printf("substrate: synthetic cifar10-like (source), stl10-like (D_T)\n\n");

  data::Dataset source = data::make_dataset(data::DatasetKind::kCifar10, 1);
  data::Dataset target = data::make_dataset(data::DatasetKind::kStl10, 2);

  std::printf("[%.1fs] training a clean suspicious model...\n", clock.seconds());
  auto clean = core::train_clean_model(source, nn::ArchKind::kResNet18Mini,
                                       101, scale);
  std::printf("[%.1fs]   clean accuracy: %.3f\n", clock.seconds(),
              clean.clean_accuracy);

  std::printf("[%.1fs] training a BadNets-backdoored suspicious model...\n",
              clock.seconds());
  auto attack = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets,
                                                /*target_class=*/0);
  auto infected = core::train_backdoored_model(
      source, attack, nn::ArchKind::kResNet18Mini, 102, scale);
  std::printf("[%.1fs]   clean accuracy: %.3f, attack success rate: %.3f\n",
              clock.seconds(), infected.clean_accuracy, infected.asr);

  std::printf("[%.1fs] fitting the BPROM detector (shadows + prompts + forest)...\n",
              clock.seconds());
  core::BpromDetector detector = core::fit_detector(
      source, target, /*reserved_fraction=*/0.10,
      nn::ArchKind::kResNet18Mini, 7, scale);
  const auto& diag = detector.diagnostics();
  double clean_acc = 0.0;
  for (double a : diag.clean_shadow_prompted_accuracy) clean_acc += a;
  clean_acc /= static_cast<double>(diag.clean_shadow_prompted_accuracy.size());
  double bd_acc = 0.0;
  for (double a : diag.backdoor_shadow_prompted_accuracy) bd_acc += a;
  bd_acc /= static_cast<double>(diag.backdoor_shadow_prompted_accuracy.size());
  std::printf("[%.1fs]   prompted shadow accuracy: clean %.3f vs backdoored %.3f\n",
              clock.seconds(), clean_acc, bd_acc);

  std::printf("[%.1fs] inspecting both models (black-box CMA-ES prompting)...\n",
              clock.seconds());
  nn::BlackBoxAdapter clean_box(*clean.model);
  auto v1 = detector.inspect(clean_box);
  std::printf("[%.1fs]   clean model    -> score %.3f (%s), prompted acc %.3f, %zu queries\n",
              clock.seconds(), v1.score, v1.backdoored ? "BACKDOOR" : "clean",
              v1.prompted_accuracy, v1.queries);

  nn::BlackBoxAdapter infected_box(*infected.model);
  auto v2 = detector.inspect(infected_box);
  std::printf("[%.1fs]   infected model -> score %.3f (%s), prompted acc %.3f, %zu queries\n",
              clock.seconds(), v2.score, v2.backdoored ? "BACKDOOR" : "clean",
              v2.prompted_accuracy, v2.queries);

  const bool correct = !v1.backdoored && v2.backdoored;
  std::printf("\nverdict pair %s", correct ? "CORRECT\n" : "incorrect ");
  if (!correct) {
    std::printf("(expected at smoke scale: 2+2 shadows are too few for the "
                "forest; rerun with BPROM_SCALE=2)\n");
  }
  return 0;
}
