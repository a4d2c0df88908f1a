#include "io/serialize.hpp"

#include <limits>
#include <utility>

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
// Every configuration in use learns 1 or 2 prompts per inspection.
constexpr std::size_t kMaxPromptEnsemble = 64;

template <class Ar, class T>
void tensor_fields(Ar& ar, T& t) {
  ar.tag("TNSR");
  if constexpr (Ar::kReads) {
    // The data is read (and bounded by the bytes left) before the shape
    // allocates anything.
    std::vector<std::size_t> shape;
    std::vector<float> data;
    ar(shape, data);
    // Multiply with an overflow check: a wrapped product could match the
    // data and leave a shape far larger than the buffer behind it.
    std::size_t size = 1;
    for (const std::size_t d : shape) {
      if (d != 0 && size > std::numeric_limits<std::size_t>::max() / d) {
        throw IoError("tensor shape overflows");
      }
      size *= d;
    }
    if (data.size() != size) {
      throw IoError("tensor data size does not match its shape");
    }
    t = tensor::Tensor(std::move(shape));
    t.vec() = std::move(data);
  } else {
    ar(t.shape(), t.vec());
  }
}

template <class Ar, class D>
void labeled_data_fields(Ar& ar, D& data) {
  ar.tag("DATA");
  tensor_fields(ar, data.images);
  ar(data.labels);
  if constexpr (Ar::kReads) {
    if (data.images.rank() > 0 && data.images.dim(0) != data.labels.size()) {
      throw IoError("labeled data batch/label count mismatch");
    }
  }
}

template <class Ar, class C>
void forest_config_fields(Ar& ar, C& c) {
  ar(c.trees, c.tree.max_depth, c.tree.min_samples_leaf,
     c.tree.feature_subsample, c.seed);
}

}  // namespace

void save_tensor(Writer& writer, const tensor::Tensor& t) {
  tensor_fields(writer, t);
}

tensor::Tensor load_tensor(Reader& reader) {
  tensor::Tensor t;
  tensor_fields(reader, t);
  return t;
}

void save_labeled_data(Writer& writer, const nn::LabeledData& data) {
  labeled_data_fields(writer, data);
}

nn::LabeledData load_labeled_data(Reader& reader) {
  nn::LabeledData data;
  labeled_data_fields(reader, data);
  return data;
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
// Member field lists: these live here (not next to their classes) so the
// io subsystem stays the single owner of the wire format, while private
// state stays private.
// ----------------------------------------------------------------------

namespace bprom::meta {

template <class Ar, class Self>
void DecisionTree::fields(Ar& ar, Self& self, std::size_t feature_dim) {
  ar.tag("TREE");
  ar.sequence(self.nodes_, [](auto& a, auto& node) {
    a(node.feature, node.threshold, node.p1, node.left, node.right);
  });
  if constexpr (Ar::kReads) {
    // Structural soundness: a leaf has feature -1; an interior node splits
    // on a feature inside [0, feature_dim) and its children come strictly
    // after it (fit() builds trees that way), which also guarantees the
    // predict walk terminates.
    const auto n = static_cast<std::int64_t>(self.nodes_.size());
    for (std::int64_t i = 0; i < n; ++i) {
      const Node& node = self.nodes_[static_cast<std::size_t>(i)];
      if (node.feature < -1 ||
          node.feature >= static_cast<std::int64_t>(feature_dim)) {
        throw io::IoError("decision-tree split feature out of range");
      }
      if (node.feature >= 0 && (node.left <= i || node.right <= i ||
                                node.left >= n || node.right >= n)) {
        throw io::IoError("decision-tree child index out of range");
      }
    }
  }
}

template <class Ar, class Self>
void RandomForest::fields(Ar& ar, Self& self) {
  ar.tag("FRST");
  io::forest_config_fields(ar, self.config_);
  ar(self.feature_dim_);
  ar.sequence(self.trees_, [&self](auto& a, auto& tree) {
    DecisionTree::fields(a, tree, self.feature_dim_);
  });
}

void RandomForest::save(io::Writer& writer) const { fields(writer, *this); }

RandomForest RandomForest::load(io::Reader& reader) {
  RandomForest forest;
  fields(reader, forest);
  return forest;
}

}  // namespace bprom::meta

namespace bprom::nn {

void Model::save(io::Writer& writer) {
  writer.tag("MODL");
  writer.enumeration(arch_, ArchKind::kMlp, "model architecture tag");
  writer(input_.channels, input_.height, input_.width, classes_,
         save_parameters());
}

std::unique_ptr<Model> Model::load(io::Reader& reader) {
  reader.tag("MODL");
  ArchKind arch{};
  reader.enumeration(arch, ArchKind::kMlp, "model architecture tag");
  ImageShape input;
  std::size_t classes = 0;
  reader(input.channels, input.height, input.width, classes);
  if (input.channels == 0 || input.height == 0 || input.width == 0 ||
      input.channels > io::kMaxImagePixels ||
      input.height > io::kMaxImagePixels ||
      input.width > io::kMaxImagePixels ||
      input.size() / input.channels / input.height != input.width ||
      input.size() > io::kMaxImagePixels) {
    throw io::IoError("image shape out of range");
  }
  if (classes == 0 || classes > io::kMaxClasses) {
    throw io::IoError("model class count out of range");
  }
  std::vector<float> blob;
  reader(blob);
  // The descriptor alone fixes the blob length, so a mismatch is refused
  // before any layer is built: a load commits memory in proportion to the
  // bytes it read, never to the shape a header declares.
  const std::size_t expected = parameter_count(arch, input, classes);
  if (blob.size() != expected) {
    throw io::IoError("model weight blob size mismatch: file has " +
                      std::to_string(blob.size()) + " floats, architecture " +
                      arch_name(arch) + " needs " + std::to_string(expected));
  }

  // Rebuild the layer graph from the architecture descriptor, then
  // overwrite every parameter and state buffer — the init Rng is dummy.
  util::Rng rng(0);
  auto model = make_model(arch, input, classes, rng);
  model->load_parameters(blob);
  return model;
}

}  // namespace bprom::nn

namespace bprom::core {

template <class Ar, class Self>
void BpromDetector::fields(Ar& ar, Self& self) {
  auto& c = self.config_;
  ar.tag("DTCT");
  ar.enumeration(c.shadow_arch, nn::ArchKind::kMlp, "shadow architecture tag");
  ar(c.clean_shadows, c.backdoor_shadows);
  ar.enumeration(c.shadow_attack, attacks::AttackKind::kPoisonInk,
                 "shadow attack tag");
  ar(c.shadow_poison_rate, c.query_samples);
  ar(c.shadow_train.epochs, c.shadow_train.batch_size, c.shadow_train.lr,
     c.shadow_train.momentum, c.shadow_train.weight_decay,
     c.shadow_train.lr_decay, c.shadow_train.seed);
  ar(c.prompt_whitebox.epochs, c.prompt_whitebox.batch_size,
     c.prompt_whitebox.lr, c.prompt_whitebox.seed);
  ar(c.prompt_blackbox.eval_samples, c.prompt_blackbox.max_evaluations,
     c.prompt_blackbox.sigma0);
  ar.enumeration(c.prompt_blackbox.optimizer, vp::BlackBoxOptimizer::kCmaEs,
                 "black-box optimizer tag");
  ar.enumeration(c.prompt_blackbox.mode, opt::CovarianceMode::kSeparable,
                 "covariance mode tag");
  ar(c.prompt_blackbox.seed);
  io::forest_config_fields(ar, c.forest);
  ar(c.prompt_shadows_blackbox, c.prompt_ensemble, c.include_query_features,
     c.sort_confidence_features, c.seed);

  // Fitted state.
  ar(self.source_classes_, self.target_classes_);
  io::labeled_data_fields(ar, self.target_train_);
  io::labeled_data_fields(ar, self.target_test_);
  io::labeled_data_fields(ar, self.query_set_);
  meta::RandomForest::fields(ar, self.forest_);

  // Diagnostics.
  ar(self.diag_.clean_shadow_prompted_accuracy,
     self.diag_.backdoor_shadow_prompted_accuracy, self.diag_.meta_features,
     self.diag_.meta_labels);
}

void BpromDetector::save(io::Writer& writer) const {
  if (!fitted_) {
    throw io::IoError("cannot save an unfitted BpromDetector",
                      io::ErrorKind::kPrecondition);
  }
  fields(writer, *this);
}

BpromDetector BpromDetector::load(io::Reader& reader) {
  BpromDetector detector;
  fields(reader, detector);
  // What fit() establishes, so a container save() could never have written
  // is refused here rather than failing every audit it serves.
  if (detector.target_classes_ == 0 ||
      detector.target_classes_ > detector.source_classes_ ||
      detector.source_classes_ > io::kMaxClasses) {
    throw io::IoError("detector class counts out of range");
  }
  for (const nn::LabeledData* set : {&detector.target_train_,
                                     &detector.target_test_,
                                     &detector.query_set_}) {
    for (const int label : set->labels) {
      if (label < 0 ||
          static_cast<std::size_t>(label) >= detector.target_classes_) {
        throw io::IoError("detector label outside its target classes");
      }
    }
  }
  // inspect() allocates and runs one prompt-learning member per unit of
  // prompt_ensemble (0 runs as 1).
  if (detector.config_.prompt_ensemble > io::kMaxPromptEnsemble) {
    throw io::IoError("detector prompt ensemble out of range");
  }
  detector.fitted_ = true;
  return detector;
}

}  // namespace bprom::core
