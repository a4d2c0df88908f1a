// Adaptive attacker study (§6.4): sweep the poison rate down to 0.2 % and
// try clean-label SIG — watch ASR decay while detection holds (or degrades
// gracefully at substrate scale, where a 0.2 % rate poisons only a few
// training images).
#include <cstdio>
#include "core/experiment.hpp"

int main() {
  using namespace bprom;
  auto scale = core::ExperimentScale::current();
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 1);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 2);
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  std::printf("== Adaptive attacker: low poison rates (BadNets) ==\n");
  std::printf("%-10s %-8s %-8s\n", "rate", "ASR", "score");
  for (double rate : {0.002, 0.01, 0.05, 0.20}) {
    auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 4);
    atk.poison_rate = rate;
    auto m = core::train_backdoored_model(src, atk, nn::ArchKind::kResNet18Mini,
                                          1000 + static_cast<int>(1000 * rate),
                                          scale);
    nn::BlackBoxAdapter box(*m.model);
    auto verdict = detector.inspect(box);
    std::printf("%-10.3f %-8.3f %-8.3f\n", rate, m.asr, verdict.score);
  }

  std::printf("\n== Adaptive attacker: clean-label SIG ==\n");
  auto sig = attacks::AttackConfig::defaults(attacks::AttackKind::kSig, 4);
  auto m = core::train_backdoored_model(src, sig, nn::ArchKind::kResNet18Mini,
                                        2000, scale);
  nn::BlackBoxAdapter box(*m.model);
  auto verdict = detector.inspect(box);
  std::printf("SIG: ASR %.3f, BPROM score %.3f (%s)\n", m.asr, verdict.score,
              verdict.backdoored ? "BACKDOOR" : "clean");
  return 0;
}
