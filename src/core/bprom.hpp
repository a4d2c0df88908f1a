// BPROM — black-box model-level backdoor detection via visual prompting.
//
// Pipeline (paper Algorithm 1):
//   1. Shadow model generation: n clean + (M - n) backdoored shadow models
//      trained on the reserved clean set D_S (backdoored ones on poisoned
//      copies, a *single* attack type suffices — the class-subspace
//      inconsistency is attack-agnostic).
//   2. Prompting: learn a visual prompt per shadow model on the external
//      clean set D_T (by default with the same black-box optimizer used at
//      detection; white-box backprop is optional).
//   3. Meta-model: concatenate q prompted confidence vectors per shadow on
//      a fixed query set D_Q ⊂ D_T^test; train a random forest.
// Detection: prompt the suspicious model black-box (SPSA by default,
// CMA-ES optional), collect the same q confidence vectors, ask the forest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "api/status.hpp"
#include "util/stopwatch.hpp"
#include "attacks/poisoner.hpp"
#include "meta/random_forest.hpp"
#include "nn/arch.hpp"
#include "nn/blackbox.hpp"
#include "vp/train_blackbox.hpp"
#include "vp/train_whitebox.hpp"

namespace bprom::io {
class Writer;
class Reader;
}  // namespace bprom::io

namespace bprom::core {

struct BpromConfig {
  nn::ArchKind shadow_arch = nn::ArchKind::kResNet18Mini;
  std::size_t clean_shadows = 10;
  std::size_t backdoor_shadows = 10;
  /// Single attack used to poison shadow training sets (paper §5.3: one
  /// attack type suffices, unlike MNTD).
  attacks::AttackKind shadow_attack = attacks::AttackKind::kBadNets;
  /// Defender-chosen poison rate for shadow poisoning.
  double shadow_poison_rate = 0.30;
  /// q: number of query samples whose confidence vectors feed the forest.
  std::size_t query_samples = 16;
  nn::TrainConfig shadow_train{};
  vp::WhiteBoxPromptConfig prompt_whitebox{};
  vp::BlackBoxPromptConfig prompt_blackbox{};
  meta::ForestConfig forest{};
  /// Prompt shadow models with the same black-box optimizer used for the
  /// suspicious model (instead of white-box backprop).  Keeps the meta
  /// features in one optimization regime; the white-box path remains for
  /// the prompted-accuracy analyses (ablated in bench_ablations).
  bool prompt_shadows_blackbox = true;
  /// Number of independent prompts learned per inspected model; the meta
  /// features are averaged across the ensemble to suppress prompt-seed
  /// noise (ablated in bench_ablations).
  std::size_t prompt_ensemble = 2;
  /// Include the raw q-query confidence-vector block in the meta features
  /// (Algorithm 1's features), alongside the distribution-level summaries.
  /// On by default — the measured ablation (bench_ablations) favours the
  /// combined feature set; disable to use summaries only.
  bool include_query_features = true;
  /// Sort each query's confidence vector descending before concatenation.
  /// Makes the meta features invariant to which class the attacker targets
  /// (the paper instead compensates with many more trees and shadows than
  /// CPU-scale fitting affords).
  bool sort_confidence_features = true;
  std::uint64_t seed = 29;
};

struct Verdict {
  /// Forest P(backdoor).
  double score = 0.0;
  bool backdoored = false;
  /// Prompted-model accuracy on D_T^test (the diagnostic the paper's
  /// class-subspace-inconsistency analysis is built on).
  double prompted_accuracy = 0.0;
  /// Black-box queries spent on this inspection.
  std::size_t queries = 0;
  /// True when the prompt-learning evaluation budget was too small to
  /// complete even one optimizer step: score/prompted_accuracy are then the
  /// unoptimized-prompt values, not a real detection.  The api façade turns
  /// this into Status::kBudgetExhausted instead of a silent default.
  bool budget_exhausted = false;
  /// True when an InspectDeadline expired mid-inspection: at least one
  /// prompt-ensemble member did not finish, so score/prompted_accuracy are
  /// meaningless — but `queries` still reports exactly what the aborted
  /// inspection spent (the caller's budget accounting owes its users that).
  /// The api façade turns this into Status::kDeadlineExceeded.
  bool deadline_exceeded = false;
};

/// Wall-clock deadline threaded into inspect() by serving layers.  The
/// clock is anchored wherever the caller started it (api::AuditEngine
/// anchors at batch submission, so async queue wait counts), and inspect()
/// re-checks it before each prompt-ensemble member's prompt learning and
/// again before its observation pass — the boundaries at which aborting
/// cannot split a CMA-ES/SPSA optimization mid-stream.
/// Deadlines are inherently wall-clock and therefore the one knob that can
/// make results thread-count-dependent; pass nullptr when reproducibility
/// matters.
struct InspectDeadline {
  util::Stopwatch clock;       ///< started by the serving layer
  std::uint64_t deadline_ms = 0;  ///< 0 disables

  [[nodiscard]] bool expired() const {
    return deadline_ms > 0 &&
           clock.seconds() * 1e3 > static_cast<double>(deadline_ms);
  }
};

/// Diagnostics captured during fit() for analysis benches / figures.
struct FitDiagnostics {
  std::vector<double> clean_shadow_prompted_accuracy;
  std::vector<double> backdoor_shadow_prompted_accuracy;
  /// Meta features per shadow (clean shadows first).
  std::vector<std::vector<float>> meta_features;
  std::vector<int> meta_labels;
};

class BpromDetector {
 public:
  explicit BpromDetector(BpromConfig config = {});

  /// Train the detector.
  ///   reserved_clean — D_S (the small clean set from the source task)
  ///   source_classes — K_S (class count of the suspicious model's task)
  ///   target_train/target_test — D_T split (external clean dataset)
  /// Throws std::invalid_argument, leaving the detector untouched, when a
  /// set is empty, a label is negative, a D_T^test label lies outside
  /// D_T^train's class range, or K_T > K_S (the output mapping is
  /// one-to-one).
  void fit(const nn::LabeledData& reserved_clean, std::size_t source_classes,
           const nn::LabeledData& target_train,
           const nn::LabeledData& target_test);

  /// Inspect a suspicious model through black-box queries only.  The prompt
  /// ensemble members run in parallel, all querying `suspicious` at once
  /// (BlackBoxModel::predict_proba may be called concurrently); results
  /// are bit-identical for any thread count.  `seed_salt` offsets the
  /// ensemble prompt seeds — serving layers pass per-request pre-split
  /// salts; 0 reproduces the historical seeding.  A non-null `deadline` is
  /// checked before each member's prompt learning and before its
  /// observation pass: once it expires, the remaining steps are skipped
  /// and the verdict comes back with deadline_exceeded set and the exact
  /// queries spent so far (see Verdict::deadline_exceeded).  Throws
  /// std::invalid_argument with inspectable()'s message when that check
  /// fails.
  [[nodiscard]] Verdict inspect(const nn::BlackBoxModel& suspicious,
                                std::uint64_t seed_salt = 0,
                                const InspectDeadline* deadline = nullptr)
      const;

  /// Typed precondition check for inspect(): OK when `model` is non-null,
  /// the detector is fitted, and the class counts agree.  inspect() throws
  /// on a failed check; serving layers call this first to surface the
  /// typed api::Status instead.
  [[nodiscard]] api::Status inspectable(const nn::BlackBoxModel* model) const;

  /// Threshold-free convenience: the raw backdoor score in [0, 1].
  [[nodiscard]] double score(const nn::BlackBoxModel& suspicious) const {
    return inspect(suspicious).score;
  }

  [[nodiscard]] const FitDiagnostics& diagnostics() const { return diag_; }
  [[nodiscard]] const BpromConfig& config() const { return config_; }
  [[nodiscard]] bool fitted() const { return fitted_; }
  /// K_S the detector was fitted for (0 before fit()).
  [[nodiscard]] std::size_t source_classes() const { return source_classes_; }

  /// Binary persistence of the whole fitted detector: config, D_T splits,
  /// D_Q, forest, and diagnostics.
  /// A loaded detector inspects with identical scores in a fresh process.
  /// Implemented in io/serialize.cpp; save() throws io::IoError when the
  /// detector is not fitted.
  void save(io::Writer& writer) const;
  static BpromDetector load(io::Reader& reader);

 private:
  /// The one field list save() and load() run (io/serialize.cpp).
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self);

  /// What one prompted ensemble member contributes to a verdict.
  struct Observation {
    std::vector<float> features;  ///< meta features
    double prompted_accuracy = 0.0;  ///< mapped accuracy on D_T^test
  };

  /// The one routine fit() and inspect() share, so the forest is trained
  /// and evaluated on features from the same code.  One pass over
  /// D_T^train feeds both the output mapping and the block-2 statistics,
  /// then one pass over D_Q and one over D_T^test.
  [[nodiscard]] Observation observe_member(
      const nn::BlackBoxModel& box, const vp::VisualPrompt& prompt) const;
  /// Ensemble mean, adding members in ascending order so the float
  /// accumulation is the same for any thread count.
  static Observation mean_observation(std::vector<Observation> members);

  BpromConfig config_;
  bool fitted_ = false;
  std::size_t source_classes_ = 0;
  std::size_t target_classes_ = 0;
  nn::LabeledData target_train_;
  nn::LabeledData target_test_;
  nn::LabeledData query_set_;  // D_Q
  meta::RandomForest forest_;
  FitDiagnostics diag_;
};

}  // namespace bprom::core
