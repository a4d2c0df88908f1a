// Classifier model: feature backbone + linear head.
//
// Splitting the head out gives every analysis component (defenses, the
// class-subspace figures) access to penultimate features without layer
// surgery, and gives the VP trainer a single backward() that propagates all
// the way to the *input* gradient — which is what prompt learning optimizes.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"
#include "nn/sequential.hpp"

namespace bprom::io {
class Writer;
class Reader;
}  // namespace bprom::io

namespace bprom::nn {

enum class ArchKind;

struct ImageShape {
  std::size_t channels = 3;
  std::size_t height = 16;
  std::size_t width = 16;

  [[nodiscard]] std::size_t size() const { return channels * height * width; }
  bool operator==(const ImageShape&) const = default;
};

class Model {
 public:
  Model(std::unique_ptr<Sequential> backbone, std::unique_ptr<Linear> head,
        ImageShape input, std::size_t classes);

  /// Logits [N, K] for an image batch [N, C, H, W].  Caches what
  /// backward() reads: the training path, one thread at a time.
  Tensor logits(const Tensor& images, bool train = false);

  // The eval-only methods below run Layer::infer: they write nothing, so
  // any number of threads may call them at once.  Each splits the batch
  // into fixed 16-row chunks, packs every chunk into the lane layout
  // (tensor/lanes.hpp) and carries it through the whole layer stack as one
  // task of a single parallel_for (a batch of at most one chunk runs
  // inline); only the features or logits are unpacked back to rows.  Every
  // layer computes an inference row from that row alone, with the products
  // and summation order of its row-major forward, so the result equals the
  // full-batch eval forward logits(images, false) bit for bit, for any
  // chunk boundaries and any thread count.  Each refuses, with
  // std::invalid_argument and in every build, a batch that is not
  // [N, C, H, W] of input_shape().

  /// Penultimate features [N, D] (backbone output, eval mode).
  Tensor features(const Tensor& images) const;

  /// Softmax probabilities [N, K] (eval mode).
  Tensor predict_proba(const Tensor& images) const;

  /// Argmax predictions.
  std::vector<int> predict(const Tensor& images) const;

  /// Fraction of correct argmax predictions.  Refuses a label vector whose
  /// length is not the batch size (std::invalid_argument).
  double accuracy(const Tensor& images, const std::vector<int>& labels) const;

  /// Backprop dL/dlogits through head and backbone; returns dL/dinput.
  /// Must follow a logits() call on the same batch.
  Tensor backward(const Tensor& dlogits);

  std::vector<Parameter*> parameters();

  /// Persistent non-trainable buffers (BatchNorm running stats), in the
  /// same deterministic order as parameters().
  std::vector<std::vector<float>*> state_buffers();

  /// Deep copy: layers, weights, and running stats are duplicated, so
  /// training either copy leaves the other unchanged.
  [[nodiscard]] std::unique_ptr<Model> clone() const;

  [[nodiscard]] const ImageShape& input_shape() const { return input_; }
  [[nodiscard]] std::size_t num_classes() const { return classes_; }
  [[nodiscard]] std::size_t feature_dim() const {
    return head_->in_features();
  }

  /// Architecture family this model was built from (stamped by make_model);
  /// the descriptor that lets save()/load() rebuild the layer graph.
  [[nodiscard]] ArchKind arch() const { return arch_; }
  void set_arch(ArchKind arch) { arch_ = arch; }

  /// Flatten all parameters AND persistent state (BatchNorm running
  /// mean/var) into a blob / restore from one.  A restored model is
  /// eval-ready with no fresh stats pass.
  [[nodiscard]] std::vector<float> save_parameters();
  void load_parameters(const std::vector<float>& blob);

  /// Binary persistence: architecture descriptor + input shape + classes +
  /// the save_parameters() blob.  Implemented in io/serialize.cpp.
  void save(io::Writer& writer);
  static std::unique_ptr<Model> load(io::Reader& reader);

 private:
  /// How far infer_rows() carries each row.
  enum class Stage { kFeatures, kLogits, kProbabilities };

  /// The one inference driver behind the eval-only methods: [N, D]
  /// features, [N, K] logits or [N, K] probabilities, computed chunk by
  /// chunk into one preallocated output.
  Tensor infer_rows(const Tensor& images, Stage stage) const;

  std::unique_ptr<Sequential> backbone_;
  std::unique_ptr<Linear> head_;
  ImageShape input_;
  std::size_t classes_;
  ArchKind arch_{};
};

}  // namespace bprom::nn
