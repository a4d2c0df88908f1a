#include "nn/model.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "nn/loss.hpp"
#include "util/thread_pool.hpp"

namespace bprom::nn {
namespace {

// Rows per inference task: one lane chunk.  A 48-row query runs as three
// chunks on up to three threads.  The size is a constant, never derived
// from the pool size, so the work split is the same on every host.
constexpr std::size_t kInferChunkRows = tensor::kLanes;

/// Throws std::invalid_argument unless `images` is [N, C, H, W] of `input`.
void check_batch(const Tensor& images, const ImageShape& input) {
  const std::vector<std::size_t>& shape = images.shape();
  if (shape.size() == 4 && shape[1] == input.channels &&
      shape[2] == input.height && shape[3] == input.width) {
    return;
  }
  std::string what = "Model: batch [";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) what += ", ";
    what += std::to_string(shape[i]);
  }
  what += "] is not [N, ";
  what += std::to_string(input.channels);
  what += ", ";
  what += std::to_string(input.height);
  what += ", ";
  what += std::to_string(input.width);
  what += "]";
  throw std::invalid_argument(what);
}

}  // namespace

Model::Model(std::unique_ptr<Sequential> backbone,
             std::unique_ptr<Linear> head, ImageShape input,
             std::size_t classes)
    : backbone_(std::move(backbone)),
      head_(std::move(head)),
      input_(input),
      classes_(classes) {
  assert(head_->out_features() == classes_);
}

Tensor Model::logits(const Tensor& images, bool train) {
  Tensor f = backbone_->forward(images, train);
  return head_->forward(std::move(f), train);
}

Tensor Model::infer_rows(const Tensor& images, Stage stage) const {
  check_batch(images, input_);
  const std::size_t n = images.dim(0);
  const std::size_t width =
      stage == Stage::kFeatures ? feature_dim() : classes_;
  Tensor out({n, width});
  // Each chunk packs its input rows, runs the whole stack on them and
  // unpacks its output rows into place: chunks own disjoint rows, so they
  // run as tasks of one parallel_for with nothing shared but `out`.
  const auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = c * kInferChunkRows;
    const std::size_t hi = std::min(lo + kInferChunkRows, n);
    Lanes h = backbone_->infer(Lanes::pack(images, lo, hi));
    if (stage != Stage::kFeatures) h = head_->infer(h);
    assert(h.features() == width);
    float* rows = out.data() + lo * width;
    h.unpack(rows);
    if (stage == Stage::kProbabilities) softmax_rows(rows, hi - lo, width);
  };
  const std::size_t chunks = (n + kInferChunkRows - 1) / kInferChunkRows;
  if (chunks == 1) {
    run_chunk(0);
  } else if (chunks > 1) {
    util::parallel_for(chunks, run_chunk);
  }
  return out;
}

Tensor Model::features(const Tensor& images) const {
  return infer_rows(images, Stage::kFeatures);
}

Tensor Model::predict_proba(const Tensor& images) const {
  return infer_rows(images, Stage::kProbabilities);
}

std::vector<int> Model::predict(const Tensor& images) const {
  const Tensor l = infer_rows(images, Stage::kLogits);
  const std::size_t n = l.dim(0);
  std::vector<int> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const float* row = l.data() + i * classes_;
    std::size_t arg = 0;
    for (std::size_t j = 1; j < classes_; ++j) {
      if (row[j] > row[arg]) arg = j;
    }
    out[i] = static_cast<int>(arg);
  }
  return out;
}

double Model::accuracy(const Tensor& images,
                       const std::vector<int>& labels) const {
  check_batch(images, input_);
  if (labels.size() != images.dim(0)) {
    std::string what = "Model::accuracy: ";
    what += std::to_string(labels.size());
    what += " labels for ";
    what += std::to_string(images.dim(0));
    what += " images";
    throw std::invalid_argument(what);
  }
  const auto preds = predict(images);
  std::size_t hits = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++hits;
  }
  return preds.empty() ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(preds.size());
}

Tensor Model::backward(const Tensor& dlogits) {
  Tensor g = head_->backward(dlogits);
  return backbone_->backward(std::move(g));
}

std::vector<Parameter*> Model::parameters() {
  auto params = backbone_->parameters();
  for (auto* p : head_->parameters()) params.push_back(p);
  return params;
}

std::vector<std::vector<float>*> Model::state_buffers() {
  auto buffers = backbone_->state();
  for (auto* s : head_->state()) buffers.push_back(s);
  return buffers;
}

std::unique_ptr<Model> Model::clone() const {
  auto backbone = std::unique_ptr<Sequential>(
      static_cast<Sequential*>(backbone_->clone().release()));
  auto head =
      std::unique_ptr<Linear>(static_cast<Linear*>(head_->clone().release()));
  auto copy = std::make_unique<Model>(std::move(backbone), std::move(head),
                                      input_, classes_);
  copy->arch_ = arch_;
  return copy;
}

std::vector<float> Model::save_parameters() {
  std::vector<float> blob;
  for (auto* p : parameters()) {
    blob.insert(blob.end(), p->value.vec().begin(), p->value.vec().end());
  }
  for (auto* s : state_buffers()) {
    blob.insert(blob.end(), s->begin(), s->end());
  }
  return blob;
}

void Model::load_parameters(const std::vector<float>& blob) {
  std::size_t offset = 0;
  for (auto* p : parameters()) {
    assert(offset + p->value.size() <= blob.size());
    std::copy(blob.begin() + static_cast<long>(offset),
              blob.begin() + static_cast<long>(offset + p->value.size()),
              p->value.vec().begin());
    offset += p->value.size();
  }
  for (auto* s : state_buffers()) {
    assert(offset + s->size() <= blob.size());
    std::copy(blob.begin() + static_cast<long>(offset),
              blob.begin() + static_cast<long>(offset + s->size()),
              s->begin());
    offset += s->size();
  }
  assert(offset == blob.size());
}

}  // namespace bprom::nn
