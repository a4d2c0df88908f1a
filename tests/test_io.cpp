// Persistence round-trips: every artifact must reload byte-exactly, and
// malformed containers must be rejected loudly.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "io/binary.hpp"
#include "io/serialize.hpp"
#include "nn/arch.hpp"
#include "nn/trainer.hpp"

namespace bprom {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// FNV-1a 64 of a byte string: a digest that is the same on every host.
std::uint64_t fnv1a64(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Literal floats that are exact in binary: i-th value of a fixed pattern.
float pattern(std::size_t i) {
  return 0.0078125F * static_cast<float>(static_cast<int>(i % 255) - 127);
}

// Forgers for the golden and count tests: they write chunks with the scalar
// primitives alone, so the bytes they pin do not depend on the serializers
// under test.
void forge_tensor(io::Writer& w, const std::vector<std::uint64_t>& shape,
                  std::size_t first) {
  std::uint64_t size = 1;
  w.write_tag("TNSR");
  w.write_u64(shape.size());
  for (std::uint64_t d : shape) {
    w.write_u64(d);
    size *= d;
  }
  w.write_u64(size);
  for (std::size_t i = 0; i < size; ++i) w.write_f32(pattern(first + i));
}

void forge_data(io::Writer& w, std::uint64_t rows, std::size_t first) {
  w.write_tag("DATA");
  forge_tensor(w, {rows, 1, 2, 2}, first);
  w.write_u64(rows);
  for (std::uint64_t r = 0; r < rows; ++r) {
    w.write_i32(static_cast<std::int32_t>((first + r) % 3));
  }
}

void forge_tree_node(io::Writer& w, int feature, float threshold, double p1,
                     int left, int right) {
  w.write_i32(feature);
  w.write_f32(threshold);
  w.write_f64(p1);
  w.write_i32(left);
  w.write_i32(right);
}

/// A one-tree forest over `feature_dim` features: a root split on feature
/// 1 and two leaves.  `trees` and `nodes` are the declared counts, so a
/// test can claim more than the payload holds.
void forge_forest(io::Writer& w, std::uint64_t feature_dim,
                  std::uint64_t trees = 1, std::uint64_t nodes = 3) {
  w.write_tag("FRST");
  w.write_u64(1);   // config.trees
  w.write_u64(8);   // config.tree.max_depth
  w.write_u64(1);   // config.tree.min_samples_leaf
  w.write_u64(0);   // config.tree.feature_subsample
  w.write_u64(19);  // config.seed
  w.write_u64(feature_dim);
  w.write_u64(trees);
  w.write_tag("TREE");
  w.write_u64(nodes);
  forge_tree_node(w, 1, 0.375F, 0.5, 1, 2);
  forge_tree_node(w, -1, 0.0F, 0.25, -1, -1);
  forge_tree_node(w, -1, 0.0F, 0.875, -1, -1);
}

/// The detector fields a test may forge; the defaults give a container
/// `BpromDetector::save` could have written.
struct DetectorForgery {
  std::uint64_t meta_rows = 3;
  std::uint64_t prompt_ensemble = 3;
  std::uint64_t source_classes = 3;
  std::uint64_t target_classes = 3;
};

/// A fitted detector as `BpromDetector::save` writes it: every config field
/// set to a distinct value, three DATA chunks (labels 0..2), a one-tree
/// forest over the 4 meta features, and diagnostics with `meta_rows`
/// declared rows.
std::vector<std::uint8_t> forge_detector(const DetectorForgery& f = {}) {
  io::Writer w;
  w.write_tag("DTCT");
  w.write_u32(1);       // shadow_arch: kMobileNetV2Mini
  w.write_u64(2);       // clean_shadows
  w.write_u64(3);       // backdoor_shadows
  w.write_u32(4);       // shadow_attack: kDynamic
  w.write_f64(0.125);   // shadow_poison_rate
  w.write_u64(2);       // query_samples
  w.write_u64(5);       // shadow_train.epochs
  w.write_u64(7);       // shadow_train.batch_size
  w.write_f32(0.0625F);  // shadow_train.lr
  w.write_f32(0.875F);   // shadow_train.momentum
  w.write_f32(0.001953125F);  // shadow_train.weight_decay
  w.write_f32(0.75F);   // shadow_train.lr_decay
  w.write_u64(11);      // shadow_train.seed
  w.write_u64(13);      // prompt_whitebox.epochs
  w.write_u64(17);      // prompt_whitebox.batch_size
  w.write_f32(0.375F);  // prompt_whitebox.lr
  w.write_u64(19);      // prompt_whitebox.seed
  w.write_u64(23);      // prompt_blackbox.eval_samples
  w.write_u64(29);      // prompt_blackbox.max_evaluations
  w.write_f64(0.5);     // prompt_blackbox.sigma0
  w.write_u32(1);       // prompt_blackbox.optimizer: kCmaEs
  w.write_u32(0);       // prompt_blackbox.mode: kFull
  w.write_u64(31);      // prompt_blackbox.seed
  w.write_u64(1);       // forest.trees
  w.write_u64(6);       // forest.tree.max_depth
  w.write_u64(2);       // forest.tree.min_samples_leaf
  w.write_u64(3);       // forest.tree.feature_subsample
  w.write_u64(37);      // forest.seed
  w.write_u8(0);        // prompt_shadows_blackbox
  w.write_u64(f.prompt_ensemble);
  w.write_u8(1);        // include_query_features
  w.write_u8(0);        // sort_confidence_features
  w.write_u64(41);      // seed
  w.write_u64(f.source_classes);
  w.write_u64(f.target_classes);
  forge_data(w, 4, 0);    // target_train
  forge_data(w, 3, 16);   // target_test
  forge_data(w, 2, 28);   // query_set
  forge_forest(w, 4);
  w.write_u64(2);       // clean_shadow_prompted_accuracy
  w.write_f64(0.5);
  w.write_f64(0.75);
  w.write_u64(1);       // backdoor_shadow_prompted_accuracy
  w.write_f64(0.25);
  w.write_u64(f.meta_rows);  // meta_features
  for (std::size_t r = 0; r < 3; ++r) {
    w.write_u64(4);
    for (std::size_t c = 0; c < 4; ++c) w.write_f32(pattern(40 + 4 * r + c));
  }
  w.write_u64(3);       // meta_labels
  w.write_i32(0);
  w.write_i32(0);
  w.write_i32(1);
  return w.payload();
}

/// The container around a forged payload.
std::vector<std::uint8_t> seal(const std::vector<std::uint8_t>& payload) {
  io::Writer w;
  for (std::uint8_t b : payload) w.write_u8(b);
  return w.finish();
}

core::ExperimentScale micro_scale() {
  core::ExperimentScale s;
  s.suspicious_train = 120;
  s.suspicious_epochs = 2;
  s.population_per_side = 1;
  s.shadows_per_side = 2;
  s.shadow_epochs = 2;
  s.prompt_epochs = 1;
  s.blackbox_evals = 40;
  s.query_samples = 4;
  s.forest_trees = 20;
  return s;
}

TEST(IoBinary, TensorRoundTripIsByteExact) {
  util::Rng rng(3);
  tensor::Tensor t = tensor::Tensor::randn({2, 3, 4, 5}, rng);
  io::Writer writer;
  io::save_tensor(writer, t);

  io::Reader reader(writer.finish());
  tensor::Tensor back = io::load_tensor(reader);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_EQ(back.vec(), t.vec());  // exact float equality: same bits
  EXPECT_EQ(reader.remaining(), 0U);
}

TEST(IoBinary, LabeledDataRoundTrip) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 5, 24, 8);
  io::Writer writer;
  io::save_labeled_data(writer, dataset.train);
  io::Reader reader(writer.finish());
  nn::LabeledData back = io::load_labeled_data(reader);
  EXPECT_EQ(back.images.vec(), dataset.train.images.vec());
  EXPECT_EQ(back.labels, dataset.train.labels);
}

TEST(IoBinary, EveryContainerKeepsItsBytes) {
  // One value of every container chunk, built from literals so its bytes
  // are the same on every host and compiler, pinned by payload length and
  // FNV-1a-64.  Each must also decode and re-encode to the same bytes.  A
  // deliberate format change bumps kFormatVersion and re-pins.
  EXPECT_EQ(io::kFormatVersion, 1U);
  struct Pinned {
    std::string name;
    std::size_t length;
    std::uint64_t fnv;
  };
  const std::vector<Pinned> pinned = {
      {"TNSR", 60, 0xe36d1aa3b41df82dULL},
      {"DATA", 124, 0xfe82d12ce4148210ULL},
      {"MODL ResNet18Mini", 20192, 0xe593b69b96c1271bULL},
      {"MODL MobileNetV2Mini", 8704, 0x7369ee5c857ac7b7ULL},
      {"MODL MobileViTMini", 12160, 0x858de31b8651e9a5ULL},
      {"MODL SwinMini", 31744, 0x4858a826efda9f92ULL},
      {"MODL Mlp", 58304, 0xfc1d124158440b19ULL},
      {"FRST", 144, 0x5ca6f4b1c2cea108ULL},
      {"DTCT", 883, 0x810758fd4ccc941dULL},
  };
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> actual;

  {
    tensor::Tensor t({2, 3});
    for (std::size_t i = 0; i < 6; ++i) t.vec()[i] = pattern(i);
    io::Writer w;
    io::save_tensor(w, t);
    io::Reader r(w.finish());
    io::Writer again;
    io::save_tensor(again, io::load_tensor(r));
    EXPECT_EQ(again.payload(), w.payload());
    actual.emplace_back("TNSR", w.payload());
  }
  {
    nn::LabeledData data;
    data.images = tensor::Tensor({3, 1, 2, 2});
    for (std::size_t i = 0; i < 12; ++i) data.images.vec()[i] = pattern(100 + i);
    data.labels = {2, 0, 1};
    io::Writer w;
    io::save_labeled_data(w, data);
    io::Reader r(w.finish());
    io::Writer again;
    io::save_labeled_data(again, io::load_labeled_data(r));
    EXPECT_EQ(again.payload(), w.payload());
    actual.emplace_back("DATA", w.payload());
  }
  for (const nn::ArchKind arch :
       {nn::ArchKind::kResNet18Mini, nn::ArchKind::kMobileNetV2Mini,
        nn::ArchKind::kMobileViTMini, nn::ArchKind::kSwinMini,
        nn::ArchKind::kMlp}) {
    util::Rng rng(0);
    auto model = nn::make_model(arch, nn::ImageShape{3, 8, 8}, 4, rng);
    std::vector<float> blob(model->save_parameters().size());
    for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = pattern(i);
    model->load_parameters(blob);  // every weight and statistic is literal
    io::Writer w;
    model->save(w);
    io::Reader r(w.finish());
    io::Writer again;
    nn::Model::load(r)->save(again);
    EXPECT_EQ(again.payload(), w.payload()) << nn::arch_name(arch);
    std::string name = "MODL ";
    name += nn::arch_name(arch);
    actual.emplace_back(name, w.payload());
  }
  {
    io::Writer forged;
    forge_forest(forged, 6);
    io::Reader r(forged.finish());
    io::Writer again;
    meta::RandomForest::load(r).save(again);
    EXPECT_EQ(again.payload(), forged.payload());
    actual.emplace_back("FRST", forged.payload());
  }
  {
    const std::vector<std::uint8_t> forged = forge_detector();
    io::Reader r(seal(forged));
    io::Writer again;
    core::BpromDetector::load(r).save(again);
    EXPECT_EQ(again.payload(), forged);
    actual.emplace_back("DTCT", forged);
  }

  ASSERT_EQ(actual.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    const auto& [name, payload] = actual[i];
    EXPECT_EQ(name, pinned[i].name);
    EXPECT_EQ(payload.size(), pinned[i].length) << name;
    EXPECT_EQ(fnv1a64(payload), pinned[i].fnv)
        << name << ": {\"" << name << "\", " << payload.size() << ", 0x"
        << std::hex << fnv1a64(payload) << "ULL}";
  }
}

TEST(IoBinary, RejectsCorruptTruncatedAndWrongVersionFiles) {
  util::Rng rng(4);
  tensor::Tensor t = tensor::Tensor::randn({4, 4}, rng);
  io::Writer writer;
  io::save_tensor(writer, t);
  const std::vector<std::uint8_t> good = writer.finish();

  // Sanity: the untouched container parses.
  EXPECT_NO_THROW(io::Reader{good});

  // Every rejection carries the ErrorKind the api façade maps onto its
  // Status codes, so the kinds are part of the contract.
  const auto kind_of = [](const std::vector<std::uint8_t>& bytes) {
    try {
      io::Reader reader{bytes};
    } catch (const io::IoError& e) {
      return e.kind();
    }
    ADD_FAILURE() << "container unexpectedly parsed";
    return io::ErrorKind::kIo;
  };

  // Bad magic.
  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(kind_of(bad_magic), io::ErrorKind::kCorrupt);

  // Unsupported (newer) version: mismatch, not corruption.
  auto bad_version = good;
  bad_version[4] = 99;
  EXPECT_EQ(kind_of(bad_version), io::ErrorKind::kVersionMismatch);

  // Truncated payload.
  auto truncated = good;
  truncated.resize(truncated.size() / 2);
  EXPECT_EQ(kind_of(truncated), io::ErrorKind::kCorrupt);

  // Single flipped payload byte -> CRC failure.
  auto corrupt = good;
  corrupt[24] ^= 0x40U;
  EXPECT_EQ(kind_of(corrupt), io::ErrorKind::kCorrupt);

  // Wrong chunk kind: a Tensor container is not a forest.
  io::Reader reader{good};
  EXPECT_THROW(meta::RandomForest::load(reader), io::IoError);

  // A missing file is kNotFound (the façade's Status::kNotFound), not kIo.
  try {
    io::Reader::from_file("/nonexistent/bprom/container.bprom");
    ADD_FAILURE() << "missing file unexpectedly opened";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kNotFound);
  }
}

TEST(IoBinary, RejectsStructurallyCorruptTrees) {
  // Hand-craft a CRC-valid FRST container whose single tree splits on a
  // feature far beyond the recorded feature dimension: the CRC passes but
  // load() must still refuse (out-of-bounds split would read past the
  // feature vector at predict time).
  const auto forged = [](int feature, int left, int right) {
    io::Writer writer;
    writer.write_tag("FRST");
    writer.write_u64(1);  // config.trees
    writer.write_u64(8);  // config.tree.max_depth
    writer.write_u64(1);  // config.tree.min_samples_leaf
    writer.write_u64(0);  // config.tree.feature_subsample
    writer.write_u64(19); // config.seed
    writer.write_u64(6);  // feature_dim
    writer.write_u64(1);  // tree count
    writer.write_tag("TREE");
    writer.write_u64(3);  // node count
    writer.write_i32(feature);
    writer.write_f32(0.0F);
    writer.write_f64(0.5);
    writer.write_i32(left);
    writer.write_i32(right);
    for (int leaf = 0; leaf < 2; ++leaf) {
      writer.write_i32(-1);
      writer.write_f32(0.0F);
      writer.write_f64(0.5);
      writer.write_i32(-1);
      writer.write_i32(-1);
    }
    return writer.finish();
  };

  {  // Well-formed control: parses.
    io::Reader reader(forged(2, 1, 2));
    EXPECT_NO_THROW(meta::RandomForest::load(reader));
  }
  {  // Split feature beyond feature_dim.
    io::Reader reader(forged(500, 1, 2));
    EXPECT_THROW(meta::RandomForest::load(reader), io::IoError);
  }
  {  // Self-referential child: would loop forever at predict time.
    io::Reader reader(forged(2, 0, 2));
    EXPECT_THROW(meta::RandomForest::load(reader), io::IoError);
  }
  // Counts the payload cannot hold are corrupt, not an allocation: 2^40
  // trees or 2^40 nodes must never reach reserve().
  const auto load_forest = [](std::uint64_t trees, std::uint64_t nodes) {
    io::Writer writer;
    forge_forest(writer, 6, trees, nodes);
    io::Reader reader(writer.finish());
    return meta::RandomForest::load(reader);
  };
  EXPECT_NO_THROW(load_forest(1, 3));  // control: the honest counts load
  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (const auto& [trees, nodes] :
       {std::pair{huge, std::uint64_t{3}}, std::pair{std::uint64_t{1}, huge}}) {
    try {
      (void)load_forest(trees, nodes);
      ADD_FAILURE() << trees << " trees of " << nodes << " nodes loaded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kCorrupt) << e.what();
    }
  }
}

TEST(IoBinary, RejectsCountsThePayloadCannotHold) {
  const auto expect_corrupt = [](const std::vector<std::uint8_t>& bytes,
                                 const auto& load, const char* what) {
    try {
      io::Reader reader(bytes);
      (void)load(reader);
      ADD_FAILURE() << what << " loaded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kCorrupt) << what << ": " << e.what();
    }
  };
  const auto load_detector = [](io::Reader& r) {
    return core::BpromDetector::load(r);
  };
  {  // Control: the forged detector loads.
    io::Reader reader(seal(forge_detector()));
    EXPECT_TRUE(core::BpromDetector::load(reader).fitted());
  }
  expect_corrupt(seal(forge_detector({.meta_rows = std::uint64_t{1} << 40})),
                 load_detector, "2^40 meta-feature rows");

  // A shape whose product wraps to the (empty) data size.
  io::Writer wrapped;
  forge_tensor(wrapped, {std::uint64_t{1} << 32, std::uint64_t{1} << 32}, 0);
  expect_corrupt(wrapped.finish(), io::load_tensor, "a 2^32 x 2^32 tensor");
}

// A model container states its architecture, input shape and class count
// before its weights, and those alone fix the weight count.  A 68-byte
// container declaring a 3x512x512 Mlp (50 M weights) with an empty blob
// must be refused before the model is built, not after.
TEST(IoBinary, RefusesAMismatchedModelBlobBeforeBuildingTheModel) {
  io::Writer w;
  w.tag("MODL");
  w.enumeration(nn::ArchKind::kMlp, nn::ArchKind::kMlp, "architecture");
  w(std::size_t{3}, std::size_t{512}, std::size_t{512}, std::size_t{10},
    std::vector<float>{});
  const std::vector<std::uint8_t> bytes = w.finish();
  EXPECT_EQ(bytes.size(), 68U);

  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  try {
    io::Reader reader(bytes);
    (void)nn::Model::load(reader);
    ADD_FAILURE() << "a model with an empty weight blob loaded";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kCorrupt) << e.what();
  }
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  // ru_maxrss is in KiB on Linux; building the model would add ~400 MB.
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 32L * 1024);
}

// BpromDetector::load refuses what fit() never writes: class counts out of
// order, a stored label outside the target classes, or a prompt ensemble
// no configuration uses (2^40 members used to end every audit in
// std::bad_alloc).
TEST(IoBinary, RefusesADetectorWithAnAbsurdPromptEnsemble) {
  for (const std::uint64_t ensemble : {std::uint64_t{0}, std::uint64_t{2}}) {
    io::Reader reader(seal(forge_detector({.prompt_ensemble = ensemble})));
    EXPECT_TRUE(core::BpromDetector::load(reader).fitted()) << ensemble;
  }
  for (const std::uint64_t ensemble :
       {std::uint64_t{1} << 16, std::uint64_t{1} << 40}) {
    try {
      io::Reader reader(seal(forge_detector({.prompt_ensemble = ensemble})));
      (void)core::BpromDetector::load(reader);
      ADD_FAILURE() << "prompt_ensemble " << ensemble << " loaded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kCorrupt) << e.what();
    }
  }
}

TEST(IoBinary, RefusesADetectorWhoseClassesFitCouldNotHaveStored) {
  const std::vector<std::pair<const char*, DetectorForgery>> forged = {
      {"no target classes", {.target_classes = 0}},
      {"more target than source classes",
       {.source_classes = 2, .target_classes = 3}},
      {"2^40 source classes",
       {.source_classes = std::uint64_t{1} << 40, .target_classes = 3}},
      // The forged DATA chunks hold labels 0..2.
      {"a label at the target class count",
       {.source_classes = 3, .target_classes = 2}},
  };
  for (const auto& [what, forgery] : forged) {
    try {
      io::Reader reader(seal(forge_detector(forgery)));
      (void)core::BpromDetector::load(reader);
      ADD_FAILURE() << what << " loaded";
    } catch (const io::IoError& e) {
      EXPECT_EQ(e.kind(), io::ErrorKind::kCorrupt) << what << ": " << e.what();
    }
  }
}

TEST(IoBinary, ModelParameterBlobIncludesBatchNormRunningStats) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 6, 96, 32);
  util::Rng rng_a(7);
  auto trained = nn::make_model(nn::ArchKind::kResNet18Mini,
                                dataset.profile.shape,
                                dataset.profile.classes, rng_a);
  nn::TrainConfig tc;
  tc.epochs = 2;
  nn::train_classifier(*trained, dataset.train, tc);

  // A differently initialized model becomes logit-identical after loading
  // the blob — only possible if BatchNorm running stats travel with it.
  util::Rng rng_b(1234);
  auto other = nn::make_model(nn::ArchKind::kResNet18Mini,
                              dataset.profile.shape, dataset.profile.classes,
                              rng_b);
  other->load_parameters(trained->save_parameters());
  const auto expected = trained->logits(dataset.test.images, false);
  const auto actual = other->logits(dataset.test.images, false);
  EXPECT_EQ(expected.vec(), actual.vec());
}

TEST(IoBinary, ModelFileRoundTripPreservesEvalLogits) {
  auto dataset = data::make_dataset(data::DatasetKind::kCifar10, 8, 96, 32);
  util::Rng rng(9);
  auto model = nn::make_model(nn::ArchKind::kMobileNetV2Mini,
                              dataset.profile.shape, dataset.profile.classes,
                              rng);
  nn::TrainConfig tc;
  tc.epochs = 2;
  nn::train_classifier(*model, dataset.train, tc);

  const std::string path = temp_path("bprom_test_model.bprom");
  io::Writer writer;
  model->save(writer);
  writer.save_file(path);
  io::Reader reader = io::Reader::from_file(path);
  auto loaded = nn::Model::load(reader);
  std::remove(path.c_str());

  EXPECT_EQ(loaded->arch(), nn::ArchKind::kMobileNetV2Mini);
  EXPECT_EQ(loaded->num_classes(), model->num_classes());
  const auto expected = model->logits(dataset.test.images, false);
  const auto actual = loaded->logits(dataset.test.images, false);
  EXPECT_EQ(expected.vec(), actual.vec());
}

TEST(IoBinary, RandomForestRoundTripPreservesScores) {
  util::Rng rng(11);
  std::vector<std::vector<float>> x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    std::vector<float> row(6);
    for (auto& v : row) v = static_cast<float>(rng.normal());
    const int label = i % 2;
    row[0] += static_cast<float>(label) * 2.0F;  // separable signal
    x.push_back(std::move(row));
    y.push_back(label);
  }
  meta::ForestConfig cfg;
  cfg.trees = 25;
  meta::RandomForest forest(cfg);
  forest.fit(x, y);

  io::Writer writer;
  forest.save(writer);
  io::Reader reader(writer.finish());
  meta::RandomForest back = meta::RandomForest::load(reader);
  EXPECT_EQ(back.tree_count(), forest.tree_count());
  EXPECT_EQ(back.config().trees, cfg.trees);
  for (const auto& row : x) {
    EXPECT_EQ(back.predict_proba(row), forest.predict_proba(row));
  }
}

TEST(IoBinary, DetectorFitSaveLoadInspectParity) {
  auto src = data::make_dataset(data::DatasetKind::kCifar10, 21, 400, 160);
  auto tgt = data::make_dataset(data::DatasetKind::kStl10, 22, 300, 160);
  const auto scale = micro_scale();
  auto detector = core::fit_detector(src, tgt, 0.10,
                                     nn::ArchKind::kResNet18Mini, 7, scale);

  const std::string path = temp_path("bprom_test_detector.bprom");
  io::save_detector_file(path, detector);
  auto loaded = io::load_detector_file(path);
  std::remove(path.c_str());

  ASSERT_TRUE(loaded.fitted());
  EXPECT_EQ(loaded.source_classes(), detector.source_classes());
  EXPECT_EQ(loaded.config().seed, detector.config().seed);
  EXPECT_EQ(loaded.diagnostics().meta_labels, detector.diagnostics().meta_labels);
  EXPECT_EQ(loaded.diagnostics().meta_features,
            detector.diagnostics().meta_features);

  // The acceptance bar: a model inspected by the reloaded detector gets
  // the identical verdict, down to the last bit of the score.
  auto population = core::build_population(
      src, attacks::AttackConfig::defaults(attacks::AttackKind::kBadNets),
      nn::ArchKind::kResNet18Mini, 1, 40, scale);
  for (const auto& suspicious : population) {
    nn::BlackBoxAdapter box_a(*suspicious.model);
    nn::BlackBoxAdapter box_b(*suspicious.model);
    const auto original = detector.inspect(box_a);
    const auto reloaded = loaded.inspect(box_b);
    EXPECT_EQ(original.score, reloaded.score);
    EXPECT_EQ(original.backdoored, reloaded.backdoored);
    EXPECT_EQ(original.prompted_accuracy, reloaded.prompted_accuracy);
    EXPECT_EQ(original.queries, reloaded.queries);
  }
}

TEST(IoBinary, UnfittedDetectorRefusesToSave) {
  core::BpromDetector detector;
  io::Writer writer;
  try {
    detector.save(writer);
    FAIL() << "unfitted detector unexpectedly saved";
  } catch (const io::IoError& e) {
    EXPECT_EQ(e.kind(), io::ErrorKind::kPrecondition);
  }
}

}  // namespace
}  // namespace bprom
