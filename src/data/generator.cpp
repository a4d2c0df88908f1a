#include "data/generator.hpp"

#include <algorithm>
#include <cmath>

namespace bprom::data {
namespace {

double logistic(double v) { return 1.0 / (1.0 + std::exp(-v)); }

/// Family constant mixed into every dataset's render-map seed so all render
/// maps share a correlated base; see header comment.
constexpr std::uint64_t kRenderFamily = 0xBA5E11FEULL;

}  // namespace

DatasetGenerator::DatasetGenerator(const DatasetProfile& profile)
    : profile_(profile) {
  util::Rng identity(profile_.identity_seed);
  centers_.resize(profile_.classes);
  for (auto& c : centers_) {
    c.resize(profile_.latent_dim);
    for (auto& v : c) v = identity.normal();
  }

  const std::size_t pixels = profile_.shape.size();
  render_w_.resize(pixels * profile_.latent_dim);
  render_b_.resize(pixels);

  // Base (family-shared) component plus dataset-specific perturbation:
  // w = 0.85 * base + 0.15 * own.  This keeps early visual statistics
  // transferable across datasets while the class semantics differ.
  util::Rng base(kRenderFamily);
  util::Rng own(profile_.identity_seed ^ kRenderFamily);
  const double scale = 1.8 / std::sqrt(static_cast<double>(profile_.latent_dim));
  for (auto& w : render_w_) {
    w = scale * (0.85 * base.normal() + 0.15 * own.normal());
  }
  for (auto& b : render_b_) {
    b = 0.25 * (0.85 * base.normal() + 0.15 * own.normal());
  }
}

void DatasetGenerator::render(const double* z, float* pixels,
                              util::Rng& rng) const {
  const std::size_t n_pixels = profile_.shape.size();
  const std::size_t d = profile_.latent_dim;
  for (std::size_t p = 0; p < n_pixels; ++p) {
    const double* wrow = render_w_.data() + p * d;
    double acc = render_b_[p];
    for (std::size_t j = 0; j < d; ++j) acc += wrow[j] * z[j];
    double v = logistic(acc) + profile_.pixel_noise * rng.normal();
    pixels[p] = static_cast<float>(std::clamp(v, 0.0, 1.0));
  }
}

LabeledData DatasetGenerator::sample(std::size_t n, util::Rng& rng) const {
  LabeledData out;
  out.images = nn::Tensor({n, profile_.shape.channels, profile_.shape.height,
                           profile_.shape.width});
  out.labels.resize(n);
  std::vector<double> z(profile_.latent_dim);
  const std::size_t sample_size = profile_.shape.size();
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(i % profile_.classes);
    out.labels[i] = cls;
    const auto& mu = centers_[static_cast<std::size_t>(cls)];
    for (std::size_t j = 0; j < z.size(); ++j) {
      z[j] = mu[j] + profile_.cluster_spread * rng.normal();
    }
    render(z.data(), out.images.data() + i * sample_size, rng);
  }
  // Shuffle so class order is not positional.
  auto perm = rng.permutation(n);
  LabeledData shuffled;
  shuffled.images = nn::Tensor(out.images.shape());
  shuffled.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::copy(out.images.data() + perm[i] * sample_size,
              out.images.data() + (perm[i] + 1) * sample_size,
              shuffled.images.data() + i * sample_size);
    shuffled.labels[i] = out.labels[perm[i]];
  }
  return shuffled;
}

Dataset make_dataset(const DatasetProfile& prof, std::uint64_t seed,
                     std::size_t train_size, std::size_t test_size) {
  DatasetGenerator gen(prof);
  util::Rng rng(seed ^ prof.identity_seed);
  Dataset ds;
  ds.profile = prof;
  ds.train = gen.sample(train_size > 0 ? train_size : prof.train_size, rng);
  ds.test = gen.sample(test_size > 0 ? test_size : prof.test_size, rng);
  return ds;
}

Dataset make_dataset(DatasetKind kind, std::uint64_t seed,
                     std::size_t train_size, std::size_t test_size) {
  return make_dataset(profile(kind), seed, train_size, test_size);
}

}  // namespace bprom::data
