// Table 13: attack configuration registry (substrate-scaled rates) + the
// paper's originals for reference.
#include "common.hpp"
int main() {
  using namespace bench;
  util::TablePrinter table({"attack", "poison rate", "cover rate",
                            "trigger", "alpha", "clean-label"});
  for (auto kind : {attacks::AttackKind::kBadNets, attacks::AttackKind::kBlend,
                    attacks::AttackKind::kTrojan, attacks::AttackKind::kWaNet,
                    attacks::AttackKind::kDynamic, attacks::AttackKind::kAdapBlend,
                    attacks::AttackKind::kAdapPatch, attacks::AttackKind::kBpp,
                    attacks::AttackKind::kSig, attacks::AttackKind::kLc,
                    attacks::AttackKind::kRefool, attacks::AttackKind::kPoisonInk}) {
    auto cfg = attacks::AttackConfig::defaults(kind);
    table.add_row({attacks::attack_name(kind), util::cell(cfg.poison_rate, 3),
                   util::cell(cfg.cover_rate, 3), util::cell(cfg.trigger_size),
                   util::cell(cfg.alpha, 2),
                   attacks::is_clean_label(kind) ? "yes" : "no"});
  }
  std::printf("== Table 13: attack configurations (rates scaled to the synthetic substrate) ==\n");
  table.print();
  return 0;
}
