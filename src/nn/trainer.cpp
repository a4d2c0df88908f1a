#include "nn/trainer.hpp"

#include <algorithm>
#include <cassert>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace bprom::nn {
namespace {

LabeledData gather(const LabeledData& data,
                   const std::vector<std::size_t>& idx, std::size_t begin,
                   std::size_t end) {
  const std::size_t sample = data.images.size() / data.size();
  std::vector<std::size_t> shape = data.images.shape();
  shape[0] = end - begin;
  LabeledData batch;
  batch.images = Tensor(shape);
  batch.labels.resize(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t src = idx[i];
    std::copy(data.images.data() + src * sample,
              data.images.data() + (src + 1) * sample,
              batch.images.data() + (i - begin) * sample);
    batch.labels[i - begin] = data.labels[src];
  }
  return batch;
}

}  // namespace

TrainHistory train_classifier(Model& model, const LabeledData& data,
                              const TrainConfig& config) {
  assert(data.size() > 0);
  util::Rng rng(config.seed);
  Sgd opt(model.parameters(), config.lr, config.momentum,
          config.weight_decay);
  TrainHistory history;

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    auto idx = rng.permutation(data.size());
    double loss_sum = 0.0;
    std::size_t correct = 0;
    std::size_t seen = 0;
    for (std::size_t begin = 0; begin < data.size();
         begin += config.batch_size) {
      const std::size_t end =
          std::min(begin + config.batch_size, data.size());
      LabeledData batch = gather(data, idx, begin, end);
      opt.zero_grad();
      Tensor logits = model.logits(batch.images, /*train=*/true);
      LossResult loss = cross_entropy(logits, batch.labels);
      model.backward(loss.dlogits);
      opt.step();
      loss_sum += loss.loss * static_cast<double>(end - begin);
      correct += loss.correct;
      seen += end - begin;
    }
    history.epoch_loss.push_back(loss_sum / static_cast<double>(seen));
    history.epoch_accuracy.push_back(static_cast<double>(correct) /
                                     static_cast<double>(seen));
    opt.set_lr(opt.lr() * config.lr_decay);
  }
  return history;
}

}  // namespace bprom::nn
