#include "attacks/attack.hpp"

namespace bprom::attacks {

std::string attack_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kBadNets:
      return "BadNets";
    case AttackKind::kBlend:
      return "Blend";
    case AttackKind::kTrojan:
      return "Trojan";
    case AttackKind::kWaNet:
      return "WaNet";
    case AttackKind::kDynamic:
      return "Dynamic";
    case AttackKind::kAdapBlend:
      return "Adap-Blend";
    case AttackKind::kAdapPatch:
      return "Adap-Patch";
    case AttackKind::kBpp:
      return "BPP";
    case AttackKind::kSig:
      return "SIG";
    case AttackKind::kLc:
      return "LC";
    case AttackKind::kRefool:
      return "Refool";
    case AttackKind::kPoisonInk:
      return "PoisonInk";
  }
  return "?";
}

bool is_clean_label(AttackKind kind) {
  return kind == AttackKind::kSig || kind == AttackKind::kLc;
}

AttackConfig AttackConfig::defaults(AttackKind kind, int target_class,
                                    std::uint64_t seed) {
  AttackConfig cfg;
  cfg.kind = kind;
  cfg.target_class = target_class;
  cfg.seed = seed;
  switch (kind) {
    case AttackKind::kBadNets:
    case AttackKind::kTrojan:
      cfg.poison_rate = 0.20;
      cfg.trigger_size = 4;
      cfg.alpha = 0.0;  // opaque patch
      break;
    case AttackKind::kBlend:
      cfg.poison_rate = 0.20;
      cfg.alpha = 0.65;
      break;
    case AttackKind::kWaNet:
      cfg.poison_rate = 0.20;
      cfg.cover_rate = 0.05;
      break;
    case AttackKind::kDynamic:
      cfg.poison_rate = 0.20;
      cfg.trigger_size = 4;
      break;
    case AttackKind::kAdapBlend:
      cfg.poison_rate = 0.20;
      cfg.cover_rate = 0.02;
      cfg.alpha = 0.60;
      break;
    case AttackKind::kAdapPatch:
      cfg.poison_rate = 0.20;
      cfg.cover_rate = 0.02;
      cfg.trigger_size = 4;
      cfg.alpha = 0.0;
      break;
    case AttackKind::kBpp:
      cfg.poison_rate = 0.20;
      break;
    case AttackKind::kSig:
      cfg.poison_rate = 1.00;  // of target-class samples
      cfg.alpha = 0.55;
      break;
    case AttackKind::kLc:
      cfg.poison_rate = 1.00;  // of target-class samples
      cfg.trigger_size = 4;
      break;
    case AttackKind::kRefool:
      cfg.poison_rate = 0.20;
      cfg.alpha = 0.35;
      break;
    case AttackKind::kPoisonInk:
      cfg.poison_rate = 0.20;
      cfg.alpha = 0.3;
      break;
  }
  return cfg;
}

}  // namespace bprom::attacks
