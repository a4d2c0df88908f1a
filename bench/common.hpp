// Shared helpers for the table/figure benches.
//
// Every bench regenerates one table or figure from the paper.  Cost scales
// with BPROM_SCALE (0 = smoke, 1 = default, 2 = heavy); absolute numbers are
// substrate-scale, the shapes are the reproduction target.
// Each binary prints the reproduced rows and per-stage wall-clock timings.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "metrics/roc.hpp"
#include "defenses/evaluate.hpp"
#include "defenses/model_level.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bench {

using namespace bprom;

struct Env {
  core::ExperimentScale scale = core::ExperimentScale::current();
  data::Dataset cifar10;
  data::Dataset gtsrb;
  data::Dataset stl10;

  static Env make() {
    Env env;
    env.cifar10 = data::make_dataset(data::DatasetKind::kCifar10, 1);
    env.gtsrb = data::make_dataset(data::DatasetKind::kGtsrb, 1);
    env.stl10 = data::make_dataset(data::DatasetKind::kStl10, 2);
    return env;
  }
};

inline const std::vector<attacks::AttackKind>& main_attacks() {
  static const std::vector<attacks::AttackKind> kinds = {
      attacks::AttackKind::kBadNets,   attacks::AttackKind::kBlend,
      attacks::AttackKind::kTrojan,    attacks::AttackKind::kBpp,
      attacks::AttackKind::kWaNet,     attacks::AttackKind::kDynamic,
      attacks::AttackKind::kAdapBlend, attacks::AttackKind::kAdapPatch};
  return kinds;
}

/// BPROM AUROC/F1 for one (source, attack) cell; reuses a fitted detector.
/// (The implementation lives in core::evaluate_cell so examples and tests
/// share it.)
using CellResult = core::CellResult;

inline CellResult bprom_cell(const core::BpromDetector& detector,
                             const data::Dataset& source,
                             attacks::AttackKind kind, nn::ArchKind arch,
                             std::uint64_t seed,
                             const core::ExperimentScale& scale) {
  return core::evaluate_cell(detector, source,
                             attacks::AttackConfig::defaults(kind), arch, seed,
                             scale);
}

/// One table row: every attack cell of the row evaluated in parallel over
/// the pool.  Cells are independent and cell i's seed is seed_base + kind,
/// exactly what the serial `for (auto a : kinds) bprom_cell(..., seed_base +
/// (int)a, ...)` loop used — so rows are bit-identical to the serial loop
/// for any thread count.
inline std::vector<CellResult> bprom_row(
    const core::BpromDetector& detector, const data::Dataset& source,
    nn::ArchKind arch, std::uint64_t seed_base,
    const core::ExperimentScale& scale,
    const std::vector<attacks::AttackKind>& kinds = main_attacks()) {
  return core::evaluate_grid(detector, source, kinds, arch, seed_base, scale);
}

/// Baseline defense AUROC for one (model, attack) cell in its own regime.
inline defenses::DefenseEval baseline_cell(defenses::DefenseKind kind,
                                           const data::Dataset& source,
                                           attacks::AttackKind attack_kind,
                                           nn::ArchKind arch,
                                           std::uint64_t seed,
                                           const core::ExperimentScale& scale,
                                           std::size_t n_eval = 40) {
  util::Rng rng(seed);
  auto atk = attacks::AttackConfig::defaults(attack_kind);
  switch (defenses::regime_of(kind)) {
    case defenses::DefenseRegime::kInputLevel: {
      auto model = core::train_backdoored_model(source, atk, arch, seed, scale);
      return defenses::evaluate_input_level(kind, *model.model, source.test,
                                            atk, n_eval, rng);
    }
    case defenses::DefenseRegime::kDataLevel: {
      util::Rng drng(seed ^ 0xDA7AULL);
      auto train = data::subset(
          source.train, drng.sample_without_replacement(
                            source.train.size(),
                            std::min(scale.suspicious_train,
                                     source.train.size())));
      auto poisoned = attacks::poison_dataset(train, atk, drng);
      util::Rng mrng(seed ^ 0x30DE1ULL);
      auto model = nn::make_model(arch, source.profile.shape,
                                  source.profile.classes, mrng);
      nn::TrainConfig tc;
      tc.epochs = scale.suspicious_epochs;
      tc.seed = mrng.next_u64();
      nn::train_classifier(*model, poisoned.data, tc);
      return defenses::evaluate_data_level(kind, *model, poisoned,
                                           source.profile.classes, rng);
    }
    case defenses::DefenseRegime::kModelLevel: {
      // MM-BD: score a small model population, cohort-parallel.
      auto population = core::build_population(
          source, atk, arch, scale.population_per_side, seed, scale);
      std::vector<nn::Model*> cohort;
      std::vector<int> labels;
      for (auto& m : population) {
        cohort.push_back(m.model.get());
        labels.push_back(m.backdoored ? 1 : 0);
      }
      std::vector<double> scores = defenses::mmbd_cohort_scores(cohort);
      defenses::DefenseEval eval;
      eval.auroc = metrics::auroc(scores, labels);
      eval.f1 = metrics::best_f1(scores, labels);
      return eval;
    }
  }
  return {};
}

/// One cell of a sharded baseline-defense grid (see baseline_grid).
struct BaselineCell {
  defenses::DefenseKind defense{};
  attacks::AttackKind attack{};
  defenses::DefenseEval eval;
  double seconds = 0.0;
};

/// The (defense × attack) baseline cells of one table, dispatched over the
/// pool the same way core::evaluate_grid shards the BPROM cells — each cell
/// trains its own models and shares nothing.  Cell (d, a) keeps the exact
/// seed the serial double loop used (`seed_base + (int)a`, shared across
/// defenses), so the grid is bit-identical to the serial loop for any
/// thread count.  Cells come back defense-major in the input order.
inline std::vector<BaselineCell> baseline_grid(
    const std::vector<defenses::DefenseKind>& defense_kinds,
    const data::Dataset& source,
    const std::vector<attacks::AttackKind>& attack_kinds, nn::ArchKind arch,
    std::uint64_t seed_base, const core::ExperimentScale& scale) {
  std::vector<BaselineCell> cells(defense_kinds.size() * attack_kinds.size());
  util::parallel_for(cells.size(), [&](std::size_t i) {
    BaselineCell& cell = cells[i];
    cell.defense = defense_kinds[i / attack_kinds.size()];
    cell.attack = attack_kinds[i % attack_kinds.size()];
    util::Stopwatch watch;
    cell.eval = baseline_cell(cell.defense, source, cell.attack, arch,
                              seed_base + (int)cell.attack, scale);
    cell.seconds = watch.seconds();
  });
  return cells;
}

inline void print_elapsed(const util::Stopwatch& clock, const char* what) {
  std::printf("[%7.1fs] %s\n", clock.seconds(), what);
}

/// Machine-readable bench telemetry: write() drops one `BENCH_<id>.json`
/// (into $BPROM_BENCH_JSON_DIR, default cwd) with per-cell and whole-run
/// wall-clock plus the thread count, so the perf trajectory of every table
/// is tracked from PR 4 on.  Reproduced numbers stay in the printed
/// tables — this file is timing telemetry only.
class BenchReport {
 public:
  explicit BenchReport(std::string id) : id_(std::move(id)) {}

  void add_cell(std::string cell_id, double seconds) {
    cells_.emplace_back(std::move(cell_id), seconds);
  }

  /// `group` disambiguates repeated grids over the same dataset (e.g. the
  /// architecture when a bench sweeps several) — without it the ids would
  /// collide and the timings be unattributable.
  void add_cells(const data::Dataset& source,
                 const std::vector<BaselineCell>& cells,
                 const std::string& group = "") {
    const std::string prefix =
        source.profile.name + (group.empty() ? "" : "/" + group) + "/";
    for (const auto& cell : cells) {
      add_cell(prefix + defenses::defense_name(cell.defense) + "/" +
                   attacks::attack_name(cell.attack),
               cell.seconds);
    }
  }

  /// A string fact about the run, written under "labels" (e.g. which GEMM
  /// tile the host chose).
  void add_label(std::string key, std::string value) {
    labels_.emplace_back(std::move(key), std::move(value));
  }

  /// Best-effort by design: a read-only working directory must not turn a
  /// finished bench run into a failure.
  void write() const {
    const char* dir = std::getenv("BPROM_BENCH_JSON_DIR");
    const std::string path =
        std::string(dir != nullptr && *dir != '\0' ? dir : ".") + "/BENCH_" +
        id_ + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    out << "{\n  \"bench\": \"" << escape(id_) << "\",\n"
        << "  \"threads\": " << util::default_pool().size() << ",\n"
        << "  \"wall_seconds\": " << wall_.seconds() << ",\n";
    if (!labels_.empty()) {
      out << "  \"labels\": {";
      for (std::size_t i = 0; i < labels_.size(); ++i) {
        out << (i == 0 ? "" : ", ") << "\"" << escape(labels_[i].first)
            << "\": \"" << escape(labels_[i].second) << "\"";
      }
      out << "},\n";
    }
    out << "  \"cells\": [";
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      out << (i == 0 ? "" : ",") << "\n    {\"id\": \""
          << escape(cells_[i].first) << "\", \"seconds\": "
          << cells_[i].second << "}";
    }
    out << (cells_.empty() ? "" : "\n  ") << "]\n}\n";
    std::printf("bench report: %s\n", path.c_str());
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::string id_;
  util::Stopwatch wall_;
  std::vector<std::pair<std::string, double>> cells_;
  std::vector<std::pair<std::string, std::string>> labels_;
};

}  // namespace bench
