// Unified defense evaluation used by the table benches.
//
// The paper's comparison tables mix regimes (that is how the original works
// evaluate): input-level defenses get AUROC/F1 at separating triggered from
// benign *inputs* on a given model, data-level defenses at separating poison
// from clean *training samples*, and model-level methods (MM-BD, MNTD,
// BPROM) at separating backdoored from clean *models*.  This header maps
// each DefenseKind to its regime and produces comparable AUROC/F1 numbers.
#pragma once

#include <string>
#include <vector>

#include "attacks/poisoner.hpp"
#include "nn/model.hpp"
#include "util/rng.hpp"

namespace bprom::defenses {

enum class DefenseKind {
  kStrip,
  kAc,
  kFrequency,
  kSentiNet,
  kCt,
  kSs,
  kScan,
  kSpectre,
  kMmBd,
  kTed,
  kTeco,
  kScaleUp,
  kCd,
};

[[nodiscard]] std::string defense_name(DefenseKind kind);

enum class DefenseRegime { kInputLevel, kDataLevel, kModelLevel };
[[nodiscard]] DefenseRegime regime_of(DefenseKind kind);

struct DefenseEval {
  double auroc = 0.5;
  double f1 = 0.0;
};

/// Input-level evaluation: `n_eval` clean test inputs vs `n_eval` triggered
/// copies, scored on the given (clean or backdoored) model.  When the model
/// is clean this reproduces the Table 1 collapse.
DefenseEval evaluate_input_level(DefenseKind kind, nn::Model& model,
                                 const nn::LabeledData& clean_test,
                                 const attacks::AttackConfig& attack,
                                 std::size_t n_eval, util::Rng& rng);

/// Data-level evaluation: score the training samples of a poisoned set and
/// compare against the ground-truth poison mask.
DefenseEval evaluate_data_level(DefenseKind kind, nn::Model& model,
                                const attacks::PoisonResult& poisoned,
                                std::size_t classes, util::Rng& rng);

/// Score a suspicious-model cohort with MM-BD, one score per model, in
/// parallel.  Models must be distinct — each task has exclusive use of its
/// model during scoring.
std::vector<double> mmbd_cohort_scores(const std::vector<nn::Model*>& cohort);

}  // namespace bprom::defenses
