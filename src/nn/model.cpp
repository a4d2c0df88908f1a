#include "nn/model.hpp"

#include <algorithm>
#include <cassert>

#include "nn/loss.hpp"
#include "util/thread_pool.hpp"

namespace bprom::nn {
namespace {

// Rows per inference task.  A 48-row query falls below every per-layer
// sharding gate, so unchunked it runs on one thread; as three chunks it
// runs on three.  The size is a constant, never derived from the pool
// size, so the work split is the same on every host.
constexpr std::size_t kInferChunkRows = 16;

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
  const auto run = [&](const Tensor& x) {
    Tensor h = backbone_->infer(x);
    if (stage == Stage::kFeatures) return h;
    h = head_->infer(h);
    if (stage == Stage::kProbabilities) return softmax(h);
    return h;
  };
  const std::size_t n = images.dim(0);
  if (n <= kInferChunkRows) return run(images);

  // Each chunk copies its input rows out, runs the whole stack on them and
  // writes its output rows into place: chunks own disjoint rows, so they
  // run as tasks of one parallel_for with nothing shared but `out`.
  const std::size_t width =
      stage == Stage::kFeatures ? feature_dim() : classes_;
  const std::size_t sample = images.size() / n;
  Tensor out({n, width});
  util::parallel_for(
      (n + kInferChunkRows - 1) / kInferChunkRows, [&](std::size_t c) {
        const std::size_t lo = c * kInferChunkRows;
        const std::size_t hi = std::min(lo + kInferChunkRows, n);
        std::vector<std::size_t> shape = images.shape();
        shape[0] = hi - lo;
        Tensor x(std::move(shape));
        std::copy(images.data() + lo * sample, images.data() + hi * sample,
                  x.data());
        const Tensor y = run(x);
        assert(y.size() == (hi - lo) * width);
        std::copy(y.data(), y.data() + y.size(), out.data() + lo * width);
      });
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
  const auto preds = predict(images);
  assert(preds.size() == labels.size());
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
