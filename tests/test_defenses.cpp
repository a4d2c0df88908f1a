// Baseline defense sanity: each defense beats chance on the attack class it
// is designed for, on a genuinely backdoored model.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>
#include <gtest/gtest.h>
#include "attacks/triggers.hpp"
#include "core/experiment.hpp"
#include "data/ops.hpp"
#include "defenses/evaluate.hpp"
#include "defenses/input_level.hpp"
#include "defenses/mntd.hpp"
#include "defenses/model_level.hpp"
namespace bprom {
namespace {

struct Fixture {
  data::Dataset src;
  core::TrainedSuspicious bd;
  core::TrainedSuspicious cln;
  core::ExperimentScale scale;

  Fixture() {
    scale = core::ExperimentScale::current();
    scale.suspicious_train = 300;
    scale.suspicious_epochs = 5;
    src = data::make_dataset(data::DatasetKind::kCifar10, 1, 1500, 600);
    auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
    bd = core::train_backdoored_model(src, atk, nn::ArchKind::kResNet18Mini, 21, scale);
    cln = core::train_clean_model(src, nn::ArchKind::kResNet18Mini, 22, scale);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

TEST(Defenses, BackdooredModelHasHighAsr) {
  EXPECT_GT(fixture().bd.asr, 0.85);
  EXPECT_GT(fixture().bd.clean_accuracy, 0.7);
}

class InputLevelSweep
    : public ::testing::TestWithParam<defenses::DefenseKind> {};

TEST_P(InputLevelSweep, BeatsChanceOnPatchTrigger) {
  auto& f = fixture();
  util::Rng rng(31);
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  atk.seed = f.bd.attack.seed;  // same trigger the model was trained on
  auto eval = defenses::evaluate_input_level(GetParam(), *f.bd.model,
                                             f.src.test, atk, 30, rng);
  EXPECT_GT(eval.auroc, 0.55) << defenses::defense_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    PatchSensitive, InputLevelSweep,
    ::testing::Values(defenses::DefenseKind::kStrip,
                      defenses::DefenseKind::kFrequency,
                      defenses::DefenseKind::kScaleUp,
                      defenses::DefenseKind::kTed));

std::string listing(const std::vector<double>& scores) {
  std::string out = "{";
  for (const double s : scores) {
    out += std::to_string(s);
    out += ", ";
  }
  out += "}";
  return out;
}

/// 8 clean and 8 BadNets-triggered test images, and 8 other clean test
/// images as the reference set.
struct PinnedInputs {
  nn::LabeledData mixed;
  nn::LabeledData reference;
};

PinnedInputs pinned_inputs() {
  auto& f = fixture();
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  atk.seed = f.bd.attack.seed;
  std::vector<std::size_t> benign_idx;
  std::vector<std::size_t> trigger_idx;
  std::vector<std::size_t> reference_idx;
  for (std::size_t i = 0; i < 8; ++i) {
    benign_idx.push_back(i);
    trigger_idx.push_back(8 + i);
    reference_idx.push_back(100 + i);
  }
  nn::LabeledData triggered = data::subset(f.src.test, trigger_idx);
  const attacks::TriggerEngine engine(atk, f.bd.model->input_shape());
  engine.apply_all(triggered.images);
  return {data::concat(data::subset(f.src.test, benign_idx), triggered),
          data::subset(f.src.test, reference_idx)};
}

// SentiNet and CD score every occlusion, mask and transplant of an input.
// Their scores on 8 clean and 8 triggered test images, for the backdoored
// and the clean model, are pinned to the values these functions returned
// when every such query was a one-row call, so grouping the queries into
// batches cannot move a score or a strict `>` tie-break.
TEST(Defenses, SentiNetAndCdScoresArePinned) {
  auto& f = fixture();
  const auto [mixed, reference] = pinned_inputs();

  struct Pinned {
    nn::Model* model;
    std::vector<double> sentinet;
    std::vector<double> cd;
  };
  const Pinned pinned[] = {
      {f.bd.model.get(),
       {0.125, 0.25, 0.25, 0.25, 0, 0.125, 0.25, 0.125, 1, 1, 1, 1, 1, 1, 1,
        1},
       {0, 0, 0, 0, 0, 0, 0, 0, 0.0625, 0.0625, 0.0625, 0.0625, 0.0625,
        0.0625, 0.0625, 0.0625}},
      {f.cln.model.get(),
       {0.125, 0.375, 0.125, 0.125, 0, 0.25, 0, 0.125, 0, 0.125, 0, 0, 0,
        0.125, 0.125, 0.125},
       {0, 0.0625, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
  };
  for (const Pinned& p : pinned) {
    const std::vector<double> sentinet =
        defenses::sentinet_scores(*p.model, mixed.images, reference);
    const std::vector<double> cd = defenses::cd_scores(*p.model, mixed.images);
    EXPECT_EQ(sentinet, p.sentinet) << listing(sentinet);
    EXPECT_EQ(cd, p.cd) << listing(cd);
  }
}

// STRIP blends each input with 10 reference images drawn from one Rng in
// (input, overlay) order.  Its scores on the same 16 images, for both
// models, are pinned to the values it returned when each input's overlays
// were one call, so sending every input's overlays in one call cannot move
// a score.
TEST(Defenses, StripScoresArePinned) {
  auto& f = fixture();
  const auto [mixed, reference] = pinned_inputs();
  struct Pinned {
    nn::Model* model;
    std::vector<double> strip;
  };
  const Pinned pinned[] = {
      {f.bd.model.get(),
       {-1.8350696505854198, -2.149785802162969, -1.8393882314144192,
        -1.8135992473163245, -1.9957160743827509, -1.9796079338723964,
        -1.5144346022828525, -1.7512703989305067, -1.714719348704449,
        -1.3309216271486182, -1.7031301446243972, -1.3632921008029693,
        -1.6316700657898735, -1.5306111192923673, -1.6953670275190547,
        -1.6878325022401306}},
      {f.cln.model.get(),
       {-1.6723824947374457, -1.3452022987299972, -1.800171282547621,
        -1.6509578962801279, -1.5215309796133969, -1.3002216158667148,
        -1.0527032635413303, -1.2618778990400039, -1.4306956257262009,
        -1.7062553257018167, -1.6601009839242025, -1.1577067504422229,
        -1.2761210625527166, -1.7069199246282341, -1.3928541430643304,
        -1.690968087126445}},
  };
  for (const Pinned& p : pinned) {
    util::Rng rng(41);
    const std::vector<double> strip =
        defenses::strip_scores(*p.model, mixed.images, reference, rng);
    std::string exact = "{";
    for (const double s : strip) {
      char digits[32];
      std::snprintf(digits, sizeof digits, "%.17g, ", s);
      exact += digits;
    }
    EXPECT_EQ(strip, p.strip) << exact << "}";
  }
}

TEST(Defenses, FrequencyDetectsPatchNotModelFree) {
  // Frequency statistic is model-free: high-frequency patch energy.
  auto& f = fixture();
  util::Rng rng(32);
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  auto eval = defenses::evaluate_input_level(defenses::DefenseKind::kFrequency,
                                             *f.cln.model, f.src.test, atk, 30, rng);
  // Works even on a clean model — it only looks at inputs.
  EXPECT_GT(eval.auroc, 0.6);
}

TEST(Defenses, StripCollapsesOnCleanModel) {
  // The Table 1 phenomenon: superposition entropy carries no signal when
  // the model has no trigger circuit.
  auto& f = fixture();
  util::Rng rng(33);
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  auto eval = defenses::evaluate_input_level(defenses::DefenseKind::kStrip,
                                             *f.cln.model, f.src.test, atk, 30, rng);
  EXPECT_LT(eval.auroc, 0.75);
}

class DataLevelSweep
    : public ::testing::TestWithParam<defenses::DefenseKind> {};

TEST_P(DataLevelSweep, BeatsChanceOnDirtyLabelPoison) {
  auto& f = fixture();
  util::Rng rng(34);
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  atk.seed = f.bd.attack.seed;
  util::Rng drng(35);
  auto train = data::subset(f.src.train,
                            drng.sample_without_replacement(f.src.train.size(), 300));
  auto poisoned = attacks::poison_dataset(train, atk, drng);
  auto eval = defenses::evaluate_data_level(GetParam(), *f.bd.model, poisoned,
                                            10, rng);
  EXPECT_GT(eval.auroc, 0.55) << defenses::defense_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    SpectralFamily, DataLevelSweep,
    ::testing::Values(defenses::DefenseKind::kSs,
                      defenses::DefenseKind::kSpectre));

TEST(Defenses, ScanProducesValidScores) {
  // SCAn's two-component surrogate is the weakest of the data-level family
  // on this substrate (matching its mid-pack Table 5 row); assert validity
  // rather than a win.
  auto& f = fixture();
  util::Rng rng(37);
  auto atk = attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets, 0);
  atk.seed = f.bd.attack.seed;
  util::Rng drng(38);
  auto train = data::subset(f.src.train,
                            drng.sample_without_replacement(f.src.train.size(), 300));
  auto poisoned = attacks::poison_dataset(train, atk, drng);
  auto eval = defenses::evaluate_data_level(defenses::DefenseKind::kScan,
                                            *f.bd.model, poisoned, 10, rng);
  EXPECT_GE(eval.auroc, 0.0);
  EXPECT_LE(eval.auroc, 1.0);
}

TEST(Defenses, MmBdScoreIsFinite) {
  auto& f = fixture();
  const double bd_score = defenses::mmbd_model_score(*f.bd.model);
  const double cln_score = defenses::mmbd_model_score(*f.cln.model);
  EXPECT_TRUE(std::isfinite(bd_score));
  EXPECT_TRUE(std::isfinite(cln_score));
}

TEST(Defenses, MntdFitsAndScores) {
  auto& f = fixture();
  util::Rng rng(36);
  auto reserved = data::sample_fraction(f.src.test, 0.2, rng);
  defenses::MntdConfig cfg;
  cfg.clean_shadows = 3;
  cfg.backdoor_shadows = 3;
  cfg.shadow_train.epochs = 3;
  defenses::MntdDetector mntd(cfg);
  mntd.fit(reserved, 10);
  nn::BlackBoxAdapter bd_box(*f.bd.model);
  nn::BlackBoxAdapter cln_box(*f.cln.model);
  const double sb = mntd.score(bd_box);
  const double sc = mntd.score(cln_box);
  EXPECT_GE(sb, 0.0);
  EXPECT_LE(sb, 1.0);
  EXPECT_GE(sc, 0.0);
  EXPECT_LE(sc, 1.0);
}

}  // namespace
}  // namespace bprom
