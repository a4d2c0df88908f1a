#include "attacks/poisoner.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace bprom::attacks {
namespace {

nn::ImageShape shape_of(const LabeledData& data) {
  return nn::ImageShape{data.images.dim(1), data.images.dim(2),
                        data.images.dim(3)};
}

void poison_into(LabeledData& data, const AttackConfig& config,
                 util::Rng& rng, PoisonStats& stats,
                 std::vector<char>& poison_mask,
                 std::vector<char>& cover_mask) {
  const TriggerEngine engine(config, shape_of(data));
  const std::size_t n = data.size();
  stats.total = n;

  std::vector<std::size_t> candidates;
  if (is_clean_label(config.kind)) {
    // Only target-class samples get poisoned; labels never change.
    for (std::size_t i = 0; i < n; ++i) {
      if (data.labels[i] == config.target_class) candidates.push_back(i);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) candidates.push_back(i);
  }

  const auto want_poison = static_cast<std::size_t>(std::round(
      config.poison_rate * static_cast<double>(candidates.size())));
  const auto want_cover = static_cast<std::size_t>(
      std::round(config.cover_rate * static_cast<double>(n)));

  auto order = rng.permutation(candidates.size());
  const std::size_t n_poison = std::min(want_poison, candidates.size());
  for (std::size_t i = 0; i < n_poison; ++i) {
    const std::size_t idx = candidates[order[i]];
    engine.apply(data.images, idx);
    if (!is_clean_label(config.kind)) {
      data.labels[idx] = config.target_class;
    }
    poison_mask[idx] = 1;
    ++stats.poisoned;
  }

  // Cover samples: stamped but keep their label (adaptive regularization).
  std::size_t covered = 0;
  for (std::size_t i = n_poison;
       i < candidates.size() && covered < want_cover; ++i) {
    const std::size_t idx = candidates[order[i]];
    if (data.labels[idx] == config.target_class) continue;
    engine.apply(data.images, idx);
    cover_mask[idx] = 1;
    ++covered;
  }
  stats.covered = covered;
}

}  // namespace

PoisonResult poison_dataset(const LabeledData& clean,
                            const AttackConfig& config, util::Rng& rng) {
  PoisonResult result;
  // Deep copy, then stamp in place.
  std::vector<std::size_t> all(clean.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  result.data = data::subset(clean, all);
  result.poison_mask.assign(clean.size(), 0);
  result.cover_mask.assign(clean.size(), 0);
  poison_into(result.data, config, rng, result.stats, result.poison_mask,
              result.cover_mask);
  return result;
}

PoisonResult poison_dataset_multi(const LabeledData& clean,
                                  const std::vector<AttackConfig>& configs,
                                  util::Rng& rng) {
  PoisonResult result;
  std::vector<std::size_t> all(clean.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  result.data = data::subset(clean, all);
  result.poison_mask.assign(clean.size(), 0);
  result.cover_mask.assign(clean.size(), 0);
  for (const auto& config : configs) {
    PoisonStats stats;
    poison_into(result.data, config, rng, stats, result.poison_mask,
                result.cover_mask);
    result.stats.poisoned += stats.poisoned;
    result.stats.covered += stats.covered;
    result.stats.total = stats.total;
  }
  return result;
}

double attack_success_rate(nn::Model& model, const LabeledData& clean_test,
                           const AttackConfig& config) {
  const TriggerEngine engine(config, shape_of(clean_test));
  // Collect non-target samples.
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < clean_test.size(); ++i) {
    if (clean_test.labels[i] != config.target_class) idx.push_back(i);
  }
  if (idx.empty()) return 0.0;
  LabeledData stamped = data::subset(clean_test, idx);
  engine.apply_all(stamped.images);

  std::size_t hits = 0;
  for (int pred : model.predict(stamped.images)) {
    if (pred == config.target_class) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(stamped.size());
}

}  // namespace bprom::attacks
