#include "core/experiment.hpp"

#include <algorithm>

#include "data/ops.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace bprom::core {

ExperimentScale ExperimentScale::current() {
  ExperimentScale s;
  switch (util::scale()) {
    case util::Scale::kSmoke:
      s.suspicious_train = 300;
      s.suspicious_epochs = 3;
      s.population_per_side = 2;
      s.shadows_per_side = 2;
      s.shadow_epochs = 4;
      s.prompt_epochs = 2;
      s.blackbox_evals = 60;
      s.query_samples = 8;
      s.forest_trees = 60;
      break;
    case util::Scale::kDefault:
      break;
    case util::Scale::kHeavy:
      s.suspicious_train = 2000;
      s.suspicious_epochs = 8;
      s.population_per_side = 15;
      s.shadows_per_side = 10;
      s.shadow_epochs = 12;
      s.prompt_epochs = 8;
      s.blackbox_evals = 600;
      s.query_samples = 24;
      s.forest_trees = 500;
      break;
  }
  return s;
}

namespace {

nn::LabeledData training_slice(const data::Dataset& dataset,
                               const ExperimentScale& scale,
                               util::Rng& rng) {
  const std::size_t n =
      std::min(scale.suspicious_train, dataset.train.size());
  return data::subset(dataset.train,
                      rng.sample_without_replacement(dataset.train.size(), n));
}

nn::TrainConfig suspicious_train_config(const ExperimentScale& scale,
                                        std::uint64_t seed) {
  nn::TrainConfig tc;
  tc.epochs = scale.suspicious_epochs;
  tc.seed = seed;
  return tc;
}

}  // namespace

TrainedSuspicious train_clean_model(const data::Dataset& dataset,
                                    nn::ArchKind arch, std::uint64_t seed,
                                    const ExperimentScale& scale) {
  util::Rng rng(seed);
  TrainedSuspicious out;
  out.model = nn::make_model(arch, dataset.profile.shape,
                             dataset.profile.classes, rng);
  const auto train = training_slice(dataset, scale, rng);
  nn::train_classifier(*out.model, train,
                       suspicious_train_config(scale, rng.next_u64()));
  out.clean_accuracy =
      out.model->accuracy(dataset.test.images, dataset.test.labels);
  return out;
}

TrainedSuspicious train_backdoored_model(const data::Dataset& dataset,
                                         const attacks::AttackConfig& attack,
                                         nn::ArchKind arch, std::uint64_t seed,
                                         const ExperimentScale& scale) {
  util::Rng rng(seed);
  TrainedSuspicious out;
  out.backdoored = true;
  out.attack = attack;
  out.model = nn::make_model(arch, dataset.profile.shape,
                             dataset.profile.classes, rng);
  auto train = training_slice(dataset, scale, rng);
  auto poisoned = attacks::poison_dataset(train, attack, rng);
  nn::train_classifier(*out.model, poisoned.data,
                       suspicious_train_config(scale, rng.next_u64()));
  out.clean_accuracy =
      out.model->accuracy(dataset.test.images, dataset.test.labels);
  out.asr = attacks::attack_success_rate(*out.model, dataset.test, attack);
  return out;
}

std::vector<TrainedSuspicious> build_population(
    const data::Dataset& dataset, const attacks::AttackConfig& attack,
    nn::ArchKind arch, std::size_t per_side, std::uint64_t seed,
    const ExperimentScale& scale) {
  // Every model draws from a seed derived only from its index, so training
  // the population in parallel reproduces the serial result bit-for-bit.
  std::vector<TrainedSuspicious> population(2 * per_side);
  util::parallel_for(2 * per_side, [&](std::size_t i) {
    if (i < per_side) {
      population[i] = train_clean_model(dataset, arch, seed * 1000 + i, scale);
      return;
    }
    const std::size_t j = i - per_side;
    attacks::AttackConfig atk = attack;
    // Vary target class and trigger seed across the population, as the
    // paper's suspicious models do.
    util::Rng vary(seed * 2000 + j);
    atk.target_class =
        static_cast<int>(vary.uniform_index(dataset.profile.classes));
    atk.seed = vary.next_u64();
    population[i] =
        train_backdoored_model(dataset, atk, arch, seed * 3000 + j, scale);
  });
  return population;
}

BpromConfig default_bprom_config(const ExperimentScale& scale,
                                 nn::ArchKind shadow_arch,
                                 std::uint64_t seed) {
  BpromConfig cfg;
  cfg.shadow_arch = shadow_arch;
  cfg.clean_shadows = scale.shadows_per_side;
  cfg.backdoor_shadows = scale.shadows_per_side;
  cfg.query_samples = scale.query_samples;
  cfg.shadow_train.epochs = scale.shadow_epochs;
  cfg.prompt_whitebox.epochs = scale.prompt_epochs;
  cfg.prompt_blackbox.max_evaluations = scale.blackbox_evals;
  cfg.forest.trees = scale.forest_trees;
  // Match the shadow poisoning strength to the attack strengths used on
  // suspicious models, so the forest learns from backdoors as strong as
  // the ones it inspects.
  cfg.shadow_poison_rate = 0.30;
  cfg.seed = seed;
  return cfg;
}

BpromDetector fit_detector(const data::Dataset& source,
                           const data::Dataset& target,
                           double reserved_fraction, nn::ArchKind shadow_arch,
                           std::uint64_t seed, const ExperimentScale& scale) {
  util::Rng rng(seed ^ 0xDE7EC7ULL);
  nn::LabeledData reserved =
      data::sample_fraction(source.test, reserved_fraction, rng);

  // D_T split: a slice of the target train set for prompting, target test
  // for queries / accuracy.
  const std::size_t prompt_n = std::min<std::size_t>(256, target.train.size());
  nn::LabeledData dt_train = data::subset(
      target.train,
      rng.sample_without_replacement(target.train.size(), prompt_n));

  BpromDetector detector(default_bprom_config(scale, shadow_arch, seed));
  detector.fit(reserved, source.profile.classes, dt_train, target.test);
  return detector;
}

PopulationScores score_population(
    const BpromDetector& detector,
    const std::vector<TrainedSuspicious>& population) {
  PopulationScores out;
  out.scores.resize(population.size());
  out.labels.resize(population.size());
  util::parallel_for(population.size(), [&](std::size_t i) {
    nn::BlackBoxAdapter adapter(*population[i].model);
    out.scores[i] = detector.score(adapter);
    out.labels[i] = population[i].backdoored ? 1 : 0;
  });
  return out;
}

CellResult evaluate_cell(const BpromDetector& detector,
                         const data::Dataset& source,
                         const attacks::AttackConfig& attack, nn::ArchKind arch,
                         std::uint64_t seed, const ExperimentScale& scale) {
  auto population = build_population(source, attack, arch,
                                     scale.population_per_side, seed, scale);
  auto scores = score_population(detector, population);
  CellResult cell;
  cell.auroc = scores.auroc();
  cell.f1 = scores.f1();
  std::size_t nb = 0;
  for (const auto& m : population) {
    if (m.backdoored) {
      cell.mean_asr += m.asr;
      ++nb;
    }
    cell.mean_acc += m.clean_accuracy;
  }
  if (nb > 0) cell.mean_asr /= static_cast<double>(nb);
  cell.mean_acc /= static_cast<double>(population.size());
  return cell;
}

std::vector<CellResult> evaluate_grid(
    const BpromDetector& detector, const data::Dataset& source,
    const std::vector<attacks::AttackKind>& kinds, nn::ArchKind arch,
    std::uint64_t seed_base, const ExperimentScale& scale) {
  std::vector<CellResult> cells(kinds.size());
  util::parallel_for(kinds.size(), [&](std::size_t i) {
    cells[i] = evaluate_cell(
        detector, source, attacks::AttackConfig::defaults(kinds[i]), arch,
        seed_base + static_cast<std::uint64_t>(kinds[i]), scale);
  });
  return cells;
}

}  // namespace bprom::core
