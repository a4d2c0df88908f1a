// Experiment orchestration shared by the benches and examples: trains
// populations of clean / backdoored suspicious models, builds detectors
// with scale-appropriate defaults, and scores populations for AUROC / F1.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/bprom.hpp"
#include "data/generator.hpp"
#include "metrics/roc.hpp"
#include "util/env.hpp"

namespace bprom::core {

/// Scale-dependent knobs for suspicious-model training and populations.
struct ExperimentScale {
  std::size_t suspicious_train = 300;
  std::size_t suspicious_epochs = 8;
  std::size_t population_per_side = 5;  // clean / backdoored counts
  std::size_t shadows_per_side = 8;
  std::size_t shadow_epochs = 8;
  std::size_t prompt_epochs = 5;
  std::size_t blackbox_evals = 400;
  std::size_t query_samples = 16;
  std::size_t forest_trees = 200;

  static ExperimentScale current();
};

struct TrainedSuspicious {
  std::unique_ptr<nn::Model> model;
  bool backdoored = false;
  double clean_accuracy = 0.0;
  double asr = 0.0;  // 0 for clean models
  attacks::AttackConfig attack;  // meaningful iff backdoored
};

/// Train a clean suspicious model.
TrainedSuspicious train_clean_model(const data::Dataset& dataset,
                                    nn::ArchKind arch, std::uint64_t seed,
                                    const ExperimentScale& scale);

/// Train a backdoored suspicious model with the given attack.
TrainedSuspicious train_backdoored_model(const data::Dataset& dataset,
                                         const attacks::AttackConfig& attack,
                                         nn::ArchKind arch, std::uint64_t seed,
                                         const ExperimentScale& scale);

/// Population of `per_side` clean + `per_side` backdoored models, trained in
/// parallel.  Every model derives from its own seed, so the population is
/// identical for any thread count.
std::vector<TrainedSuspicious> build_population(
    const data::Dataset& dataset, const attacks::AttackConfig& attack,
    nn::ArchKind arch, std::size_t per_side, std::uint64_t seed,
    const ExperimentScale& scale);

/// Scale-tuned BPROM configuration for a given source dataset.
BpromConfig default_bprom_config(const ExperimentScale& scale,
                                 nn::ArchKind shadow_arch,
                                 std::uint64_t seed);

/// Fit a detector for `source` using `target` as D_T, with D_S equal to
/// `reserved_fraction` of the source test set (the paper's 1/5/10 %).
BpromDetector fit_detector(const data::Dataset& source,
                           const data::Dataset& target,
                           double reserved_fraction, nn::ArchKind shadow_arch,
                           std::uint64_t seed, const ExperimentScale& scale);

struct PopulationScores {
  std::vector<double> scores;
  std::vector<int> labels;  // 1 = backdoored

  [[nodiscard]] double auroc() const {
    return metrics::auroc(scores, labels);
  }
  [[nodiscard]] double f1() const { return metrics::best_f1(scores, labels); }
};

/// Run the detector on every model of a population.  The suspicious cohort
/// is inspected in parallel — each task queries only its own model.
PopulationScores score_population(
    const BpromDetector& detector,
    const std::vector<TrainedSuspicious>& population);

/// Aggregate metrics of one independent (source × attack) bench grid cell:
/// a population built for one attack, scored by one fitted detector.
struct CellResult {
  double auroc = 0.5;
  double f1 = 0.0;
  double mean_asr = 0.0;
  double mean_acc = 0.0;
};

/// Build + score the population for one grid cell (reuses a fitted
/// detector).  Safe to call from inside evaluate_grid's pool tasks: the
/// nested population / scoring parallel_fors are work-assisting.
CellResult evaluate_cell(const BpromDetector& detector,
                         const data::Dataset& source,
                         const attacks::AttackConfig& attack, nn::ArchKind arch,
                         std::uint64_t seed, const ExperimentScale& scale);

/// Evaluate one cell per attack kind, sharded over the pool — the cells are
/// independent and each derives its seed only from its attack kind
/// (seed_base + kind), so the grid is bit-identical for any thread count.
std::vector<CellResult> evaluate_grid(
    const BpromDetector& detector, const data::Dataset& source,
    const std::vector<attacks::AttackKind>& kinds, nn::ArchKind arch,
    std::uint64_t seed_base, const ExperimentScale& scale);

}  // namespace bprom::core
