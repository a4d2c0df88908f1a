#include "io/serialize.hpp"

#include "meta/decision_tree.hpp"
#include "nn/arch.hpp"
#include "util/rng.hpp"

namespace bprom::io {
namespace {

// Sanity ceilings on header-declared dimensions, checked before anything
// is allocated from them: a CRC-valid container whose size fields were
// written corrupt (or adversarially) must raise IoError, not bad_alloc.
// Far above every real substrate (16x16 canvases, <=200 classes).
constexpr std::size_t kMaxImagePixels = std::size_t{1} << 26;
constexpr std::size_t kMaxClasses = std::size_t{1} << 20;

nn::ImageShape read_image_shape(Reader& reader) {
  nn::ImageShape shape;
  shape.channels = static_cast<std::size_t>(reader.read_u64());
  shape.height = static_cast<std::size_t>(reader.read_u64());
  shape.width = static_cast<std::size_t>(reader.read_u64());
  if (shape.channels == 0 || shape.height == 0 || shape.width == 0 ||
      shape.channels > kMaxImagePixels ||
      shape.height > kMaxImagePixels || shape.width > kMaxImagePixels ||
      shape.size() / shape.channels / shape.height != shape.width ||
      shape.size() > kMaxImagePixels) {
    throw IoError("image shape out of range");
  }
  return shape;
}

std::vector<std::size_t> shape_of(const tensor::Tensor& t) { return t.shape(); }

void save_train_config(Writer& w, const nn::TrainConfig& c) {
  w.write_u64(c.epochs);
  w.write_u64(c.batch_size);
  w.write_f32(c.lr);
  w.write_f32(c.momentum);
  w.write_f32(c.weight_decay);
  w.write_f32(c.lr_decay);
  w.write_u64(c.seed);
}

nn::TrainConfig load_train_config(Reader& r) {
  nn::TrainConfig c;
  c.epochs = static_cast<std::size_t>(r.read_u64());
  c.batch_size = static_cast<std::size_t>(r.read_u64());
  c.lr = r.read_f32();
  c.momentum = r.read_f32();
  c.weight_decay = r.read_f32();
  c.lr_decay = r.read_f32();
  c.seed = r.read_u64();
  return c;
}

void save_forest_config(Writer& w, const meta::ForestConfig& c) {
  w.write_u64(c.trees);
  w.write_u64(c.tree.max_depth);
  w.write_u64(c.tree.min_samples_leaf);
  w.write_u64(c.tree.feature_subsample);
  w.write_u64(c.seed);
}

meta::ForestConfig load_forest_config(Reader& r) {
  meta::ForestConfig c;
  c.trees = static_cast<std::size_t>(r.read_u64());
  c.tree.max_depth = static_cast<std::size_t>(r.read_u64());
  c.tree.min_samples_leaf = static_cast<std::size_t>(r.read_u64());
  c.tree.feature_subsample = static_cast<std::size_t>(r.read_u64());
  c.seed = r.read_u64();
  return c;
}

}  // namespace

// --------------------------------------------------------------- Tensor

void save_tensor(Writer& writer, const tensor::Tensor& t) {
  writer.write_tag("TNSR");
  writer.write_u64_vec(shape_of(t));
  writer.write_f32_vec(t.vec());
}

tensor::Tensor load_tensor(Reader& reader) {
  reader.expect_tag("TNSR");
  const auto shape = reader.read_u64_vec();
  const auto data = reader.read_f32_vec();
  if (data.size() != tensor::shape_size(shape)) {
    throw IoError("tensor data size does not match its shape");
  }
  tensor::Tensor t(shape);
  t.vec() = data;
  return t;
}

// --------------------------------------------------------- LabeledData

void save_labeled_data(Writer& writer, const nn::LabeledData& data) {
  writer.write_tag("DATA");
  save_tensor(writer, data.images);
  writer.write_i32_vec(data.labels);
}

nn::LabeledData load_labeled_data(Reader& reader) {
  reader.expect_tag("DATA");
  nn::LabeledData data;
  data.images = load_tensor(reader);
  data.labels = reader.read_i32_vec();
  if (data.images.rank() > 0 && data.images.dim(0) != data.labels.size()) {
    throw IoError("labeled data batch/label count mismatch");
  }
  return data;
}

// -------------------------------------------------------- VisualPrompt

void save_prompt(Writer& writer, const vp::VisualPrompt& prompt) {
  writer.write_tag("VPRM");
  writer.write_u64(prompt.canvas().channels);
  writer.write_u64(prompt.canvas().height);
  writer.write_u64(prompt.canvas().width);
  writer.write_u32(static_cast<std::uint32_t>(prompt.mode()));
  writer.write_f32_vec(prompt.theta());
}

vp::VisualPrompt load_prompt(Reader& reader) {
  reader.expect_tag("VPRM");
  const nn::ImageShape canvas = read_image_shape(reader);
  const auto mode = static_cast<vp::PromptMode>(reader.read_u32());
  if (mode != vp::PromptMode::kBorder && mode != vp::PromptMode::kAdditive &&
      mode != vp::PromptMode::kAdditiveCoarse) {
    throw IoError("unknown visual-prompt mode");
  }
  vp::VisualPrompt prompt(canvas, mode);
  const auto theta = reader.read_f32_vec();
  if (theta.size() != prompt.num_params()) {
    throw IoError("visual-prompt parameter count mismatch");
  }
  prompt.set_theta(theta);
  return prompt;
}

// ---------------------------------------------------------- file wrappers

void save_model_file(const std::string& path, nn::Model& model) {
  Writer writer;
  model.save(writer);
  writer.save_file(path);
}

std::unique_ptr<nn::Model> load_model_file(const std::string& path) {
  Reader reader = Reader::from_file(path);
  return nn::Model::load(reader);
}

void save_detector_file(const std::string& path,
                        const core::BpromDetector& detector) {
  Writer writer;
  detector.save(writer);
  writer.save_file(path);
}

core::BpromDetector load_detector_file(const std::string& path) {
  Reader reader = Reader::from_file(path);
  return core::BpromDetector::load(reader);
}

}  // namespace bprom::io

// ----------------------------------------------------------------------
// Member serializers: these live here (not next to their classes) so the
// io subsystem stays the single owner of the wire format, while private
// state stays private.
// ----------------------------------------------------------------------

namespace bprom::meta {

void DecisionTree::save(io::Writer& writer) const {
  writer.write_tag("TREE");
  writer.write_u64(nodes_.size());
  for (const Node& node : nodes_) {
    writer.write_i32(node.feature);
    writer.write_f32(node.threshold);
    writer.write_f64(node.p1);
    writer.write_i32(node.left);
    writer.write_i32(node.right);
  }
}

DecisionTree DecisionTree::load(io::Reader& reader, std::size_t feature_dim) {
  reader.expect_tag("TREE");
  DecisionTree tree;
  const std::uint64_t count = reader.read_u64();
  tree.nodes_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Node node;
    node.feature = reader.read_i32();
    node.threshold = reader.read_f32();
    node.p1 = reader.read_f64();
    node.left = reader.read_i32();
    node.right = reader.read_i32();
    // Structural soundness: a leaf has feature -1; an interior node splits
    // on a feature inside [0, feature_dim) and its children come strictly
    // after it (fit() builds trees that way), which also guarantees the
    // predict walk terminates.
    const auto n = static_cast<std::int64_t>(count);
    const auto self = static_cast<std::int64_t>(i);
    if (node.feature < -1 ||
        node.feature >= static_cast<std::int64_t>(feature_dim)) {
      throw io::IoError("decision-tree split feature out of range");
    }
    if (node.feature >= 0 &&
        (node.left <= self || node.right <= self || node.left >= n ||
         node.right >= n)) {
      throw io::IoError("decision-tree child index out of range");
    }
    tree.nodes_.push_back(node);
  }
  return tree;
}

void RandomForest::save(io::Writer& writer) const {
  writer.write_tag("FRST");
  io::save_forest_config(writer, config_);
  writer.write_u64(feature_dim_);
  writer.write_u64(trees_.size());
  for (const DecisionTree& tree : trees_) tree.save(writer);
}

RandomForest RandomForest::load(io::Reader& reader) {
  reader.expect_tag("FRST");
  RandomForest forest(io::load_forest_config(reader));
  forest.feature_dim_ = static_cast<std::size_t>(reader.read_u64());
  const std::uint64_t count = reader.read_u64();
  forest.trees_.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    forest.trees_.push_back(DecisionTree::load(reader, forest.feature_dim_));
  }
  return forest;
}

}  // namespace bprom::meta

namespace bprom::nn {

void Model::save(io::Writer& writer) {
  writer.write_tag("MODL");
  writer.write_u32(static_cast<std::uint32_t>(arch_));
  writer.write_u64(input_.channels);
  writer.write_u64(input_.height);
  writer.write_u64(input_.width);
  writer.write_u64(classes_);
  writer.write_f32_vec(save_parameters());
}

std::unique_ptr<Model> Model::load(io::Reader& reader) {
  reader.expect_tag("MODL");
  const std::uint32_t arch_raw = reader.read_u32();
  if (arch_raw > static_cast<std::uint32_t>(ArchKind::kMlp)) {
    throw io::IoError("unknown model architecture tag " +
                      std::to_string(arch_raw));
  }
  const auto arch = static_cast<ArchKind>(arch_raw);
  const ImageShape input = io::read_image_shape(reader);
  const auto classes = static_cast<std::size_t>(reader.read_u64());
  if (classes == 0 || classes > io::kMaxClasses) {
    throw io::IoError("model class count out of range");
  }
  const auto blob = reader.read_f32_vec();

  // Rebuild the layer graph from the architecture descriptor, then
  // overwrite every parameter and state buffer — the init Rng is dummy.
  util::Rng rng(0);
  auto model = make_model(arch, input, classes, rng);
  std::size_t expected = 0;
  for (auto* p : model->parameters()) expected += p->value.size();
  for (auto* s : model->state_buffers()) expected += s->size();
  if (blob.size() != expected) {
    throw io::IoError("model weight blob size mismatch: file has " +
                      std::to_string(blob.size()) + " floats, architecture " +
                      arch_name(arch) + " needs " + std::to_string(expected));
  }
  model->load_parameters(blob);
  return model;
}

}  // namespace bprom::nn

namespace bprom::core {

void BpromDetector::save(io::Writer& writer) const {
  if (!fitted_) {
    throw io::IoError("cannot save an unfitted BpromDetector",
                      io::ErrorKind::kPrecondition);
  }
  writer.write_tag("DTCT");

  // Config.
  writer.write_u32(static_cast<std::uint32_t>(config_.shadow_arch));
  writer.write_u64(config_.clean_shadows);
  writer.write_u64(config_.backdoor_shadows);
  writer.write_u32(static_cast<std::uint32_t>(config_.shadow_attack));
  writer.write_f64(config_.shadow_poison_rate);
  writer.write_u64(config_.query_samples);
  io::save_train_config(writer, config_.shadow_train);
  writer.write_u64(config_.prompt_whitebox.epochs);
  writer.write_u64(config_.prompt_whitebox.batch_size);
  writer.write_f32(config_.prompt_whitebox.lr);
  writer.write_u64(config_.prompt_whitebox.seed);
  writer.write_u64(config_.prompt_blackbox.eval_samples);
  writer.write_u64(config_.prompt_blackbox.max_evaluations);
  writer.write_f64(config_.prompt_blackbox.sigma0);
  writer.write_u32(static_cast<std::uint32_t>(config_.prompt_blackbox.optimizer));
  writer.write_u32(static_cast<std::uint32_t>(config_.prompt_blackbox.mode));
  writer.write_u64(config_.prompt_blackbox.seed);
  io::save_forest_config(writer, config_.forest);
  writer.write_u8(config_.prompt_shadows_blackbox ? 1 : 0);
  writer.write_u64(config_.prompt_ensemble);
  writer.write_u8(config_.include_query_features ? 1 : 0);
  writer.write_u8(config_.sort_confidence_features ? 1 : 0);
  writer.write_u64(config_.seed);

  // Fitted state.
  writer.write_u64(source_classes_);
  writer.write_u64(target_classes_);
  io::save_labeled_data(writer, target_train_);
  io::save_labeled_data(writer, target_test_);
  io::save_labeled_data(writer, query_set_);
  forest_.save(writer);

  // Diagnostics.
  writer.write_f64_vec(diag_.clean_shadow_prompted_accuracy);
  writer.write_f64_vec(diag_.backdoor_shadow_prompted_accuracy);
  writer.write_u64(diag_.meta_features.size());
  for (const auto& row : diag_.meta_features) writer.write_f32_vec(row);
  writer.write_i32_vec(diag_.meta_labels);
}

BpromDetector BpromDetector::load(io::Reader& reader) {
  reader.expect_tag("DTCT");

  BpromConfig config;
  const std::uint32_t arch_raw = reader.read_u32();
  if (arch_raw > static_cast<std::uint32_t>(nn::ArchKind::kMlp)) {
    throw io::IoError("unknown shadow architecture tag");
  }
  config.shadow_arch = static_cast<nn::ArchKind>(arch_raw);
  config.clean_shadows = static_cast<std::size_t>(reader.read_u64());
  config.backdoor_shadows = static_cast<std::size_t>(reader.read_u64());
  const std::uint32_t attack_raw = reader.read_u32();
  if (attack_raw > static_cast<std::uint32_t>(attacks::AttackKind::kPoisonInk)) {
    throw io::IoError("unknown shadow attack tag");
  }
  config.shadow_attack = static_cast<attacks::AttackKind>(attack_raw);
  config.shadow_poison_rate = reader.read_f64();
  config.query_samples = static_cast<std::size_t>(reader.read_u64());
  config.shadow_train = io::load_train_config(reader);
  config.prompt_whitebox.epochs = static_cast<std::size_t>(reader.read_u64());
  config.prompt_whitebox.batch_size =
      static_cast<std::size_t>(reader.read_u64());
  config.prompt_whitebox.lr = reader.read_f32();
  config.prompt_whitebox.seed = reader.read_u64();
  config.prompt_blackbox.eval_samples =
      static_cast<std::size_t>(reader.read_u64());
  config.prompt_blackbox.max_evaluations =
      static_cast<std::size_t>(reader.read_u64());
  config.prompt_blackbox.sigma0 = reader.read_f64();
  const std::uint32_t optimizer_raw = reader.read_u32();
  if (optimizer_raw > static_cast<std::uint32_t>(vp::BlackBoxOptimizer::kCmaEs)) {
    throw io::IoError("unknown black-box optimizer tag");
  }
  config.prompt_blackbox.optimizer =
      static_cast<vp::BlackBoxOptimizer>(optimizer_raw);
  const std::uint32_t mode_raw = reader.read_u32();
  if (mode_raw > static_cast<std::uint32_t>(opt::CovarianceMode::kSeparable)) {
    throw io::IoError("unknown covariance mode tag");
  }
  config.prompt_blackbox.mode = static_cast<opt::CovarianceMode>(mode_raw);
  config.prompt_blackbox.seed = reader.read_u64();
  config.forest = io::load_forest_config(reader);
  config.prompt_shadows_blackbox = reader.read_u8() != 0;
  config.prompt_ensemble = static_cast<std::size_t>(reader.read_u64());
  config.include_query_features = reader.read_u8() != 0;
  config.sort_confidence_features = reader.read_u8() != 0;
  config.seed = reader.read_u64();

  BpromDetector detector(config);
  detector.source_classes_ = static_cast<std::size_t>(reader.read_u64());
  detector.target_classes_ = static_cast<std::size_t>(reader.read_u64());
  detector.target_train_ = io::load_labeled_data(reader);
  detector.target_test_ = io::load_labeled_data(reader);
  detector.query_set_ = io::load_labeled_data(reader);
  detector.forest_ = meta::RandomForest::load(reader);

  detector.diag_.clean_shadow_prompted_accuracy = reader.read_f64_vec();
  detector.diag_.backdoor_shadow_prompted_accuracy = reader.read_f64_vec();
  const std::uint64_t rows = reader.read_u64();
  detector.diag_.meta_features.reserve(rows);
  for (std::uint64_t i = 0; i < rows; ++i) {
    detector.diag_.meta_features.push_back(reader.read_f32_vec());
  }
  detector.diag_.meta_labels = reader.read_i32_vec();
  detector.fitted_ = true;
  return detector;
}

}  // namespace bprom::core
