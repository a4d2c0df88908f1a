#include "defenses/data_level.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/eigen.hpp"
#include "linalg/kmeans.hpp"
#include "linalg/stats.hpp"
#include "nn/arch.hpp"
#include "nn/loss.hpp"

namespace bprom::defenses {
namespace {

/// Penultimate features for the whole set.
linalg::Matrix features_of(nn::Model& model, const LabeledData& data) {
  const std::size_t n = data.size();
  const std::size_t d = model.feature_dim();
  linalg::Matrix out(n, d);
  const nn::Tensor f = model.features(data.images);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < d; ++j) out(i, j) = f.data()[i * d + j];
  }
  return out;
}

std::vector<std::vector<std::size_t>> group_by_class(
    const LabeledData& train, std::size_t classes) {
  std::vector<std::vector<std::size_t>> groups(classes);
  for (std::size_t i = 0; i < train.size(); ++i) {
    groups[static_cast<std::size_t>(train.labels[i])].push_back(i);
  }
  return groups;
}

linalg::Matrix rows_subset(const linalg::Matrix& m,
                           const std::vector<std::size_t>& idx) {
  linalg::Matrix out(idx.size(), m.cols());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) out(i, j) = m(idx[i], j);
  }
  return out;
}

}  // namespace

std::vector<double> ac_sample_scores(nn::Model& model,
                                     const LabeledData& train,
                                     std::size_t classes, util::Rng& rng) {
  const auto feats = features_of(model, train);
  const auto groups = group_by_class(train, classes);
  std::vector<double> scores(train.size(), 0.0);

  for (const auto& group : groups) {
    if (group.size() < 4) continue;
    const auto sub = rows_subset(feats, group);
    const auto km = linalg::kmeans(sub, 2, rng);
    const double sil = linalg::silhouette_two_clusters(sub, km.assignment);
    const std::size_t small_cluster =
        km.sizes[0] <= km.sizes[1] ? 0 : 1;
    const double small_frac =
        static_cast<double>(km.sizes[small_cluster]) /
        static_cast<double>(group.size());
    // AC's heuristic: a well-separated, small cluster is the poison.
    // Continuous score: silhouette weighted by small-cluster membership and
    // its abnormality (the paper's 35 % size threshold becomes a weight).
    const double abnormality = sil * std::max(0.0, 0.35 - small_frac) / 0.35;
    for (std::size_t i = 0; i < group.size(); ++i) {
      scores[group[i]] =
          km.assignment[i] == small_cluster ? abnormality : 0.0;
    }
  }
  return scores;
}

std::vector<double> ss_sample_scores(nn::Model& model,
                                     const LabeledData& train,
                                     std::size_t classes) {
  const auto feats = features_of(model, train);
  const auto groups = group_by_class(train, classes);
  std::vector<double> scores(train.size(), 0.0);
  for (const auto& group : groups) {
    if (group.size() < 3) continue;
    auto sub = rows_subset(feats, group);
    const auto mean = linalg::row_mean(sub);
    for (std::size_t i = 0; i < sub.rows(); ++i) {
      for (std::size_t j = 0; j < sub.cols(); ++j) sub(i, j) -= mean[j];
    }
    const auto top = linalg::leading_singular(sub);
    for (std::size_t i = 0; i < group.size(); ++i) {
      const double proj = linalg::dot(sub.row(i), top.direction);
      scores[group[i]] = proj * proj;
    }
  }
  return scores;
}

std::vector<double> spectre_sample_scores(nn::Model& model,
                                          const LabeledData& train,
                                          std::size_t classes) {
  const auto feats = features_of(model, train);
  const auto groups = group_by_class(train, classes);
  std::vector<double> scores(train.size(), 0.0);
  for (const auto& group : groups) {
    if (group.size() < 4) continue;
    auto sub = rows_subset(feats, group);
    const auto mean = linalg::row_mean(sub);
    for (std::size_t i = 0; i < sub.rows(); ++i) {
      for (std::size_t j = 0; j < sub.cols(); ++j) sub(i, j) -= mean[j];
    }
    // Diagonal whitening (robust covariance surrogate).
    std::vector<double> inv_std(sub.cols(), 1.0);
    for (std::size_t j = 0; j < sub.cols(); ++j) {
      std::vector<double> col(sub.rows());
      for (std::size_t i = 0; i < sub.rows(); ++i) col[i] = sub(i, j);
      inv_std[j] = 1.0 / (linalg::stddev(col) + 1e-9);
    }
    for (std::size_t i = 0; i < sub.rows(); ++i) {
      for (std::size_t j = 0; j < sub.cols(); ++j) sub(i, j) *= inv_std[j];
    }
    // QUE-style amplification: emphasize the top direction of the whitened
    // data; poisons concentrate there.
    const auto top = linalg::leading_singular(sub);
    constexpr double kAlpha = 4.0;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const auto row = sub.row(i);
      const double proj = linalg::dot(row, top.direction);
      const double norm_sq = linalg::dot(row, row);
      scores[group[i]] = norm_sq + kAlpha * proj * proj;
    }
  }
  return scores;
}

std::vector<double> scan_sample_scores(nn::Model& model,
                                       const LabeledData& train,
                                       std::size_t classes) {
  const auto feats = features_of(model, train);
  const auto groups = group_by_class(train, classes);
  std::vector<double> scores(train.size(), 0.0);
  for (const auto& group : groups) {
    if (group.size() < 6) continue;
    auto sub = rows_subset(feats, group);
    const auto mean = linalg::row_mean(sub);
    for (std::size_t i = 0; i < sub.rows(); ++i) {
      for (std::size_t j = 0; j < sub.cols(); ++j) sub(i, j) -= mean[j];
    }
    const auto top = linalg::leading_singular(sub);
    // 1-D untangling along the top direction: fit two means by median split
    // and compare within-component variance against the single-mean model
    // (a likelihood-ratio surrogate for SCAn's hypothesis test).
    std::vector<double> proj(group.size());
    for (std::size_t i = 0; i < group.size(); ++i) {
      proj[i] = linalg::dot(sub.row(i), top.direction);
    }
    const double med = linalg::median(proj);
    std::vector<double> lo;
    std::vector<double> hi;
    for (double v : proj) {
      (v < med ? lo : hi).push_back(v);
    }
    const double var1 = linalg::variance(proj);
    const double var2 =
        (linalg::variance(lo) * static_cast<double>(lo.size()) +
         linalg::variance(hi) * static_cast<double>(hi.size())) /
        std::max<std::size_t>(1, proj.size());
    const double gain = var1 / (var2 + 1e-9);
    // Samples in the minority side of the split inherit the class gain.
    const double mean_lo = linalg::mean(lo);
    const double mean_hi = linalg::mean(hi);
    const bool lo_minor = lo.size() < hi.size();
    for (std::size_t i = 0; i < group.size(); ++i) {
      const bool in_lo = proj[i] < med;
      const double dist = std::abs(proj[i] - (in_lo ? mean_lo : mean_hi));
      scores[group[i]] =
          (in_lo == lo_minor ? gain : 0.0) + 0.01 * dist;
    }
  }
  return scores;
}

std::vector<double> ct_sample_scores(nn::Model& model,
                                     const LabeledData& train,
                                     std::size_t classes, util::Rng& rng) {
  // Proxy trained on the given (poisoned) set with label-randomized
  // confusion batches interleaved: semantic features get destroyed, the
  // trigger shortcut survives.
  (void)model;
  const nn::ImageShape shape{train.images.dim(1), train.images.dim(2),
                             train.images.dim(3)};
  util::Rng proxy_rng(rng.next_u64());
  auto proxy = nn::make_model(nn::ArchKind::kMlp, shape, classes, proxy_rng);

  // Confused training set: original samples plus an equal number of
  // label-randomized duplicates.
  LabeledData confused;
  std::vector<std::size_t> shape_v = train.images.shape();
  shape_v[0] = train.size() * 2;
  confused.images = nn::Tensor(shape_v);
  confused.labels.resize(train.size() * 2);
  const std::size_t sample = train.images.size() / train.size();
  for (std::size_t i = 0; i < train.size(); ++i) {
    std::copy(train.images.data() + i * sample,
              train.images.data() + (i + 1) * sample,
              confused.images.data() + i * sample);
    confused.labels[i] = train.labels[i];
    std::copy(train.images.data() + i * sample,
              train.images.data() + (i + 1) * sample,
              confused.images.data() + (train.size() + i) * sample);
    confused.labels[train.size() + i] =
        static_cast<int>(proxy_rng.uniform_index(classes));
  }
  nn::TrainConfig tc;
  tc.epochs = 4;
  tc.seed = proxy_rng.next_u64();
  nn::train_classifier(*proxy, confused, tc);

  // Post-confusion margin toward the sample's (possibly poisoned) label.
  nn::Tensor probs = proxy->predict_proba(train.images);
  const std::size_t k = classes;
  std::vector<double> scores(train.size());
  for (std::size_t i = 0; i < train.size(); ++i) {
    scores[i] = probs.data()[i * k + static_cast<std::size_t>(
                                         train.labels[i])];
  }
  return scores;
}

}  // namespace bprom::defenses
