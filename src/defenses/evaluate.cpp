#include "defenses/evaluate.hpp"

#include <algorithm>
#include <cassert>

#include "data/ops.hpp"
#include "defenses/data_level.hpp"
#include "defenses/input_level.hpp"
#include "defenses/model_level.hpp"
#include "metrics/roc.hpp"
#include "util/thread_pool.hpp"

namespace bprom::defenses {

std::string defense_name(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::kStrip:
      return "STRIP";
    case DefenseKind::kAc:
      return "AC";
    case DefenseKind::kFrequency:
      return "Frequency";
    case DefenseKind::kSentiNet:
      return "SentiNet";
    case DefenseKind::kCt:
      return "CT";
    case DefenseKind::kSs:
      return "SS";
    case DefenseKind::kScan:
      return "SCAn";
    case DefenseKind::kSpectre:
      return "SPECTRE";
    case DefenseKind::kMmBd:
      return "MM-BD";
    case DefenseKind::kTed:
      return "TED";
    case DefenseKind::kTeco:
      return "TeCo";
    case DefenseKind::kScaleUp:
      return "SCALE-UP";
    case DefenseKind::kCd:
      return "CD";
  }
  return "?";
}

DefenseRegime regime_of(DefenseKind kind) {
  switch (kind) {
    case DefenseKind::kStrip:
    case DefenseKind::kFrequency:
    case DefenseKind::kSentiNet:
    case DefenseKind::kTed:
    case DefenseKind::kTeco:
    case DefenseKind::kScaleUp:
    case DefenseKind::kCd:
      return DefenseRegime::kInputLevel;
    case DefenseKind::kAc:
    case DefenseKind::kCt:
    case DefenseKind::kSs:
    case DefenseKind::kScan:
    case DefenseKind::kSpectre:
      return DefenseRegime::kDataLevel;
    case DefenseKind::kMmBd:
      return DefenseRegime::kModelLevel;
  }
  return DefenseRegime::kInputLevel;
}

DefenseEval evaluate_input_level(DefenseKind kind, nn::Model& model,
                                 const nn::LabeledData& clean_test,
                                 const attacks::AttackConfig& attack,
                                 std::size_t n_eval, util::Rng& rng) {
  assert(regime_of(kind) == DefenseRegime::kInputLevel);
  const std::size_t n = std::min(n_eval, clean_test.size() / 2);

  // Benign half + triggered half (triggered copies of *other* samples).
  auto idx = rng.sample_without_replacement(clean_test.size(), 2 * n);
  std::vector<std::size_t> benign_idx(idx.begin(),
                                      idx.begin() + static_cast<long>(n));
  std::vector<std::size_t> trig_idx(idx.begin() + static_cast<long>(n),
                                    idx.end());
  nn::LabeledData benign = data::subset(clean_test, benign_idx);
  nn::LabeledData triggered = data::subset(clean_test, trig_idx);
  const attacks::TriggerEngine engine(
      attack, nn::ImageShape{clean_test.images.dim(1),
                             clean_test.images.dim(2),
                             clean_test.images.dim(3)});
  engine.apply_all(triggered.images);

  nn::LabeledData mixed = data::concat(benign, triggered);
  std::vector<int> labels(2 * n, 0);
  for (std::size_t i = n; i < 2 * n; ++i) labels[i] = 1;

  // Reference set for defenses that need held-out clean data.
  nn::LabeledData reference = data::subset(
      clean_test, rng.sample_without_replacement(clean_test.size(),
                                                 std::min<std::size_t>(
                                                     64, clean_test.size())));

  std::vector<double> scores;
  switch (kind) {
    case DefenseKind::kStrip:
      scores = strip_scores(model, mixed.images, reference, rng);
      break;
    case DefenseKind::kFrequency:
      scores = frequency_scores(mixed.images);
      break;
    case DefenseKind::kSentiNet:
      scores = sentinet_scores(model, mixed.images, reference);
      break;
    case DefenseKind::kTed:
      scores = ted_scores(model, mixed.images, reference);
      break;
    case DefenseKind::kTeco:
      scores = teco_scores(model, mixed.images, rng);
      break;
    case DefenseKind::kScaleUp:
      scores = scaleup_scores(model, mixed.images);
      break;
    case DefenseKind::kCd:
      scores = cd_scores(model, mixed.images);
      break;
    default:
      assert(false);
  }
  DefenseEval eval;
  eval.auroc = metrics::auroc(scores, labels);
  eval.f1 = metrics::best_f1(scores, labels);
  return eval;
}

DefenseEval evaluate_data_level(DefenseKind kind, nn::Model& model,
                                const attacks::PoisonResult& poisoned,
                                std::size_t classes, util::Rng& rng) {
  assert(regime_of(kind) == DefenseRegime::kDataLevel);
  std::vector<double> scores;
  switch (kind) {
    case DefenseKind::kAc:
      scores = ac_sample_scores(model, poisoned.data, classes, rng);
      break;
    case DefenseKind::kSs:
      scores = ss_sample_scores(model, poisoned.data, classes);
      break;
    case DefenseKind::kScan:
      scores = scan_sample_scores(model, poisoned.data, classes);
      break;
    case DefenseKind::kSpectre:
      scores = spectre_sample_scores(model, poisoned.data, classes);
      break;
    case DefenseKind::kCt:
      scores = ct_sample_scores(model, poisoned.data, classes, rng);
      break;
    default:
      assert(false);
  }
  std::vector<int> labels(poisoned.poison_mask.begin(),
                          poisoned.poison_mask.end());
  DefenseEval eval;
  eval.auroc = metrics::auroc(scores, labels);
  eval.f1 = metrics::best_f1(scores, labels);
  return eval;
}

std::vector<double> mmbd_cohort_scores(const std::vector<nn::Model*>& cohort) {
  std::vector<double> scores(cohort.size(), 0.0);
  util::parallel_for(cohort.size(), [&](std::size_t i) {
    scores[i] = mmbd_model_score(*cohort[i]);
  });
  return scores;
}

}  // namespace bprom::defenses
