#include "core/bprom.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <string>

#include "data/ops.hpp"
#include "util/log.hpp"

namespace bprom::core {

BpromDetector::BpromDetector(BpromConfig config)
    : config_(std::move(config)), forest_(config_.forest) {}

BpromDetector::Observation BpromDetector::observe_member(
    const nn::BlackBoxModel& box, const vp::VisualPrompt& prompt) const {
  vp::PromptedModel prompted(box, prompt);
  // Every query of the member happens in these three passes.
  const nn::Tensor train_probs = prompted.predict_proba(target_train_.images);
  prompted.set_label_mapping(vp::fit_frequency_label_mapping(
      train_probs, target_train_.labels, target_classes_));
  const nn::Tensor probs = prompted.predict_proba(query_set_.images);
  Observation out;
  out.prompted_accuracy = prompted.accuracy(target_test_);

  const std::size_t q = query_set_.size();
  const std::size_t k = source_classes_;
  std::vector<float>& features = out.features;
  features.reserve(q * (k + 1) + target_classes_ + 8);
  const auto& mapping = prompted.label_mapping();

  // Block 1 — the paper's Algorithm 1 features: the q query confidence
  // vectors, plus the per-query probability mass on the class the learned
  // output mapping expects (the per-query form of prompted accuracy).
  std::vector<float> row_buf(k);
  for (std::size_t i = 0; i < q; ++i) {
    std::copy(probs.data() + i * k, probs.data() + (i + 1) * k,
              row_buf.begin());
    const auto label = static_cast<std::size_t>(query_set_.labels[i]);
    features.push_back(row_buf[static_cast<std::size_t>(mapping[label])]);
    if (!config_.include_query_features) continue;
    if (config_.sort_confidence_features) {
      std::sort(row_buf.begin(), row_buf.end(), std::greater<float>());
    }
    features.insert(features.end(), row_buf.begin(), row_buf.end());
  }

  // Block 2 — distribution-level class-subspace-inconsistency summaries
  // over the full D_T sets (low-variance forms of the paper's signal; see
  // DESIGN.md §2).  All derive from black-box confidence vectors.  The
  // confusion matrix is flattened target-major.
  std::vector<std::size_t> pred_hist(k, 0);
  std::vector<std::size_t> class_n(target_classes_, 0);
  std::vector<std::size_t> confusion(target_classes_ * k, 0);
  // Per-class mapped accuracy profile on D_T^train, sorted ascending below:
  // a poisoned source model caps several classes near zero.
  std::vector<float> class_acc(target_classes_, 0.0F);
  double mean_max = 0.0;
  double mean_entropy = 0.0;
  const std::size_t n_train = target_train_.size();
  for (std::size_t i = 0; i < n_train; ++i) {
    const float* row = train_probs.data() + i * k;
    std::size_t arg = 0;
    double entropy = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
      if (row[j] > row[arg]) arg = j;
      if (row[j] > 1e-9F) {
        entropy -= static_cast<double>(row[j]) *
                   std::log(static_cast<double>(row[j]));
      }
    }
    const auto t = static_cast<std::size_t>(target_train_.labels[i]);
    ++pred_hist[arg];
    ++class_n[t];
    ++confusion[t * k + arg];
    if (static_cast<int>(arg) == mapping[t]) class_acc[t] += 1.0F;
    mean_max += row[arg];
    mean_entropy += entropy;
  }
  // Dominance: mass of the most-predicted source class ("target class
  // adjacent to all others" concentrates predictions).
  const double dominance =
      static_cast<double>(
          *std::max_element(pred_hist.begin(), pred_hist.end())) /
      static_cast<double>(n_train);
  // Collisions: how many target classes share their most-frequent source
  // prediction with another target class (subspace merging).
  std::vector<std::size_t> distinct(target_classes_);
  for (std::size_t t = 0; t < target_classes_; ++t) {
    const std::size_t* crow = confusion.data() + t * k;
    distinct[t] =
        static_cast<std::size_t>(std::max_element(crow, crow + k) - crow);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const double collisions = static_cast<double>(target_classes_ -
                                                distinct.size()) /
                            static_cast<double>(target_classes_);
  for (std::size_t t = 0; t < target_classes_; ++t) {
    if (class_n[t] > 0) class_acc[t] /= static_cast<float>(class_n[t]);
  }
  std::sort(class_acc.begin(), class_acc.end());

  features.push_back(static_cast<float>(dominance));
  features.push_back(static_cast<float>(collisions));
  features.push_back(static_cast<float>(mean_max / n_train));
  features.push_back(static_cast<float>(mean_entropy / n_train));
  features.insert(features.end(), class_acc.begin(), class_acc.end());
  return out;
}

BpromDetector::Observation BpromDetector::mean_observation(
    std::vector<Observation> members) {
  Observation mean = std::move(members[0]);
  for (std::size_t r = 1; r < members.size(); ++r) {
    for (std::size_t j = 0; j < mean.features.size(); ++j) {
      mean.features[j] += members[r].features[j];
    }
    mean.prompted_accuracy += members[r].prompted_accuracy;
  }
  for (auto& v : mean.features) v /= static_cast<float>(members.size());
  mean.prompted_accuracy /= static_cast<double>(members.size());
  return mean;
}

void BpromDetector::fit(const nn::LabeledData& reserved_clean,
                        std::size_t source_classes,
                        const nn::LabeledData& target_train,
                        const nn::LabeledData& target_test) {
  // Every contract is checked before any member changes, so a rejected
  // fit leaves the detector as it was.
  for (const nn::LabeledData* set : {&reserved_clean, &target_train,
                                     &target_test}) {
    if (set->size() == 0) {
      throw std::invalid_argument(
          "fit needs non-empty D_S, D_T^train and D_T^test sets");
    }
    if (*std::min_element(set->labels.begin(), set->labels.end()) < 0) {
      throw std::invalid_argument("labels must be >= 0");
    }
  }
  const auto max_label = [](const nn::LabeledData& d) {
    return static_cast<std::size_t>(
        *std::max_element(d.labels.begin(), d.labels.end()));
  };
  const std::size_t target_classes = max_label(target_train) + 1;
  if (max_label(target_test) >= target_classes) {
    throw std::invalid_argument(
        "D_T^test labels must lie in D_T^train's class range");
  }
  if (target_classes > source_classes) {
    throw std::invalid_argument(
        "target dataset has " + std::to_string(target_classes) +
        " classes but the suspicious task only has " +
        std::to_string(source_classes) +
        " (the output mapping needs K_T <= K_S)");
  }
  source_classes_ = source_classes;
  target_classes_ = target_classes;
  target_train_ = target_train;
  target_test_ = target_test;
  diag_ = FitDiagnostics{};

  util::Rng rng(config_.seed);
  const nn::ImageShape shape{reserved_clean.images.dim(1),
                             reserved_clean.images.dim(2),
                             reserved_clean.images.dim(3)};

  // D_Q: fixed random query samples from D_T^test.
  const std::size_t q = std::min(config_.query_samples, target_test.size());
  query_set_ = data::subset(
      target_test, rng.sample_without_replacement(target_test.size(), q));

  const std::size_t total =
      config_.clean_shadows + config_.backdoor_shadows;
  std::vector<std::vector<float>> features(total);
  std::vector<int> labels(total);
  std::vector<double> shadow_acc(total, 0.0);

  // Per-shadow Rng streams are split off sequentially on this thread so the
  // draw order — and therefore every trained shadow — is identical no matter
  // how many pool threads execute the loop below.
  std::vector<util::Rng> streams;
  streams.reserve(total);
  for (std::size_t i = 0; i < total; ++i) streams.push_back(rng.split(i + 1));

  // Shadow generation + prompt learning is embarrassingly parallel: each
  // task owns its model, its Rng stream, and its output slots.
  util::parallel_for(total, [&](std::size_t i) {
    const bool is_backdoor = i >= config_.clean_shadows;
    util::Rng model_rng = streams[i];

    // Clean shadows train on the shared set directly — copying it per task
    // would scale transient memory with the thread count.
    nn::LabeledData poisoned_set;
    const nn::LabeledData* train_set = &reserved_clean;
    if (is_backdoor) {
      // Sample a fresh trigger combination (m, t, alpha, y_t) per shadow.
      attacks::AttackConfig atk =
          attacks::AttackConfig::defaults(config_.shadow_attack);
      atk.poison_rate = config_.shadow_poison_rate;
      atk.target_class =
          static_cast<int>(model_rng.uniform_index(source_classes_));
      atk.seed = model_rng.next_u64();
      poisoned_set = attacks::poison_dataset(reserved_clean, atk, model_rng).data;
      train_set = &poisoned_set;
    }

    auto shadow = nn::make_model(config_.shadow_arch, shape, source_classes_,
                                 model_rng);
    nn::TrainConfig tc = config_.shadow_train;
    tc.seed = model_rng.next_u64();
    nn::train_classifier(*shadow, *train_set, tc);

    nn::BlackBoxAdapter adapter(*shadow);
    const std::size_t ensemble = std::max<std::size_t>(1, config_.prompt_ensemble);
    std::vector<Observation> members;
    members.reserve(ensemble);
    for (std::size_t r = 0; r < ensemble; ++r) {
      vp::VisualPrompt prompt = [&] {
        if (config_.prompt_shadows_blackbox) {
          vp::BlackBoxPromptConfig pc = config_.prompt_blackbox;
          pc.seed = model_rng.next_u64();
          return vp::learn_prompt_blackbox(adapter, target_train_, pc).prompt;
        }
        vp::WhiteBoxPromptConfig pc = config_.prompt_whitebox;
        pc.seed = model_rng.next_u64();
        return vp::learn_prompt_whitebox(*shadow, target_train_, pc);
      }();
      members.push_back(observe_member(adapter, prompt));
    }
    Observation mean = mean_observation(std::move(members));
    shadow_acc[i] = mean.prompted_accuracy;
    features[i] = std::move(mean.features);
    labels[i] = is_backdoor ? 1 : 0;
    util::log_debug() << "shadow " << i << (is_backdoor ? " (backdoor)" : " (clean)")
                      << " prompted acc " << shadow_acc[i];
  }, config_.pool);

  // Collected after the join so diagnostics keep the serial ordering (clean
  // shadows first, ascending index) regardless of completion order.
  for (std::size_t i = 0; i < total; ++i) {
    if (i >= config_.clean_shadows) {
      diag_.backdoor_shadow_prompted_accuracy.push_back(shadow_acc[i]);
    } else {
      diag_.clean_shadow_prompted_accuracy.push_back(shadow_acc[i]);
    }
  }

  forest_ = meta::RandomForest(config_.forest);
  forest_.fit(features, labels);
  diag_.meta_features = std::move(features);
  diag_.meta_labels = std::move(labels);
  fitted_ = true;
}

api::Status BpromDetector::inspectable(const nn::BlackBoxModel* model) const {
  if (model == nullptr) {
    return api::Status::InvalidRequest("null model");
  }
  if (!fitted_) {
    return api::Status::FailedPrecondition("detector is not fitted");
  }
  if (model->num_classes() != source_classes_) {
    return api::Status::InvalidRequest(
        "model reports " + std::to_string(model->num_classes()) +
        " classes but the detector was fitted for " +
        std::to_string(source_classes_));
  }
  return api::Status::Ok();
}

Verdict BpromDetector::inspect(const nn::BlackBoxModel& suspicious,
                               std::uint64_t seed_salt,
                               const InspectDeadline* deadline) const {
  if (api::Status s = inspectable(&suspicious); !s.ok()) {
    throw std::invalid_argument(s.message());
  }

  // Black-box prompt learning — the only access to the suspicious model is
  // confidence-vector queries.  An ensemble of independently seeded prompts
  // suppresses prompt-optimization noise.  Each ensemble member depends
  // only on its index, so members run on per-thread model replicas when
  // the black box supports replicate(); the replicas are exact deep
  // copies, making the parallel result bit-identical to the serial one for
  // any thread count.
  struct Member {
    Observation observation;
    /// Everything the member spent: prompt learning (its own replicas
    /// included) plus the observation pass on its box.
    std::size_t queries = 0;
    bool exhausted = false;
    bool ran = false;
  };
  const std::size_t ensemble = std::max<std::size_t>(1, config_.prompt_ensemble);
  std::vector<Member> members(ensemble);

  const auto run_member = [&](std::size_t r, const nn::BlackBoxModel& box) {
    // The deadline boundary: a member either starts in time and runs to
    // completion (an optimization cannot be split mid-stream) or is skipped
    // outright.  On a serial run this is literally "between ensemble
    // members"; on a replica run it gates each member as its turn comes up
    // on the pool.
    if (deadline != nullptr && deadline->expired()) return;
    vp::BlackBoxPromptConfig pc = config_.prompt_blackbox;
    pc.seed = config_.prompt_blackbox.seed + seed_salt + 7919 * (r + 1);
    const auto bb = vp::learn_prompt_blackbox(box, target_train_, pc);
    const std::size_t before = box.query_count();
    Member& member = members[r];
    member.observation = observe_member(box, bb.prompt);
    member.queries = bb.queries + (box.query_count() - before);
    member.exhausted = bb.budget_exhausted;
    member.ran = true;
  };

  std::vector<std::unique_ptr<nn::BlackBoxModel>> replicas;
  if (ensemble > 1) {
    replicas.reserve(ensemble);
    for (std::size_t r = 0; r < ensemble; ++r) {
      auto replica = suspicious.replicate();
      if (!replica) {
        replicas.clear();
        break;
      }
      replicas.push_back(std::move(replica));
    }
  }

  if (!replicas.empty()) {
    util::parallel_for(ensemble,
                       [&](std::size_t r) { run_member(r, *replicas[r]); },
                       config_.pool);
  } else {
    // One model instance is single-threaded (forward passes cache
    // activations), so a non-replicable black box runs the ensemble
    // serially — same per-member work, same results.
    for (std::size_t r = 0; r < ensemble; ++r) run_member(r, suspicious);
  }

  Verdict verdict;
  bool all_ran = true;
  std::vector<Observation> observations;
  observations.reserve(ensemble);
  for (Member& member : members) {
    verdict.queries += member.queries;
    all_ran &= member.ran;
    observations.push_back(std::move(member.observation));
  }
  // A deadline abort skips the reduction: the verdict's only meaningful
  // payload is the exact query spend of the members that did run.
  if (!all_ran) {
    verdict.deadline_exceeded = true;
    return verdict;
  }
  for (const Member& member : members) {
    verdict.budget_exhausted |= member.exhausted;
  }
  const Observation mean = mean_observation(std::move(observations));
  verdict.prompted_accuracy = mean.prompted_accuracy;
  verdict.score = forest_.predict_proba(mean.features);
  verdict.backdoored = verdict.score >= 0.5;
  return verdict;
}

}  // namespace bprom::core
