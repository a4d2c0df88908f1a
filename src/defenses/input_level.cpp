#include "defenses/input_level.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>
#include <vector>

#include "linalg/stats.hpp"
#include "nn/loss.hpp"

namespace bprom::defenses {
namespace {

/// Top-left corners of the non-overlapping `cell` x `cell` grid over an
/// h x w image, row-major: the order the occlusion scans keep.
std::vector<std::pair<std::size_t, std::size_t>> grid_cells(std::size_t h,
                                                            std::size_t w,
                                                            std::size_t cell) {
  std::vector<std::pair<std::size_t, std::size_t>> cells;
  cells.reserve((h / cell) * (w / cell));
  for (std::size_t oy = 0; oy + cell <= h; oy += cell) {
    for (std::size_t ox = 0; ox + cell <= w; ox += cell) {
      cells.emplace_back(oy, ox);
    }
  }
  return cells;
}

int argmax_row(const float* row, std::size_t k) {
  std::size_t arg = 0;
  for (std::size_t j = 1; j < k; ++j) {
    if (row[j] > row[arg]) arg = j;
  }
  return static_cast<int>(arg);
}

}  // namespace

std::vector<double> strip_scores(nn::Model& model, const Tensor& inputs,
                                 const LabeledData& clean_reference,
                                 util::Rng& rng, std::size_t overlays) {
  const std::size_t n = inputs.dim(0);
  const std::size_t k = model.num_classes();
  const std::size_t sample = inputs.size() / n;
  const std::size_t ref_n = clean_reference.size();
  assert(ref_n > 0);

  // Every input's overlays in one batch, rows (input, overlay) in the order
  // the reference draws are made; rows are independent, so one call moves
  // no score and fills the 16-row chunks a call always pays for.
  std::vector<std::size_t> shape = inputs.shape();
  shape[0] = n * overlays;
  Tensor blended(shape);
  for (std::size_t i = 0; i < n; ++i) {
    const float* a = inputs.data() + i * sample;
    for (std::size_t o = 0; o < overlays; ++o) {
      const std::size_t r = rng.uniform_index(ref_n);
      const float* b = clean_reference.images.data() + r * sample;
      float* dst = blended.data() + (i * overlays + o) * sample;
      for (std::size_t p = 0; p < sample; ++p) {
        dst[p] = 0.5F * a[p] + 0.5F * b[p];
      }
    }
  }
  const Tensor probs = model.predict_proba(blended);
  std::vector<double> scores(n, 0.0);
  std::vector<double> row(k);
  for (std::size_t i = 0; i < n; ++i) {
    double mean_entropy = 0.0;
    for (std::size_t o = 0; o < overlays; ++o) {
      const float* p = probs.data() + (i * overlays + o) * k;
      for (std::size_t j = 0; j < k; ++j) row[j] = p[j];
      mean_entropy += linalg::entropy(row);
    }
    scores[i] = -mean_entropy / static_cast<double>(overlays);
  }
  return scores;
}

std::vector<double> sentinet_scores(nn::Model& model, const Tensor& inputs,
                                    const LabeledData& clean_reference,
                                    std::size_t occluder,
                                    std::size_t transplant_targets) {
  const std::size_t n = inputs.dim(0);
  const std::size_t c = inputs.dim(1);
  const std::size_t h = inputs.dim(2);
  const std::size_t w = inputs.dim(3);
  const std::size_t sample = inputs.size() / n;
  const std::size_t k = model.num_classes();
  const auto cells = grid_cells(h, w, occluder);
  const std::size_t m = std::min(transplant_targets, clean_reference.size());
  std::vector<double> scores(n, 0.0);

  // Rows are independent, so batching the queries moves no score: all base
  // predictions in one call, then per input one call for its occluded
  // copies and one for its transplant hosts.
  const Tensor base_probs = model.predict_proba(inputs);
  for (std::size_t i = 0; i < n; ++i) {
    const float* x = inputs.data() + i * sample;
    const int pred = argmax_row(base_probs.data() + i * k, k);
    const auto at_pred = [&](const Tensor& probs, std::size_t row) {
      return probs.data()[row * k + static_cast<std::size_t>(pred)];
    };

    // Occlusion sensitivity: find the grid cell whose occlusion drops the
    // predicted-class confidence the most.
    Tensor occluded({cells.size(), c, h, w});
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const auto [oy, ox] = cells[j];
      std::copy(x, x + sample, occluded.data() + j * sample);
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t y = 0; y < occluder; ++y) {
          for (std::size_t xx = 0; xx < occluder; ++xx) {
            occluded.at4(j, ch, oy + y, ox + xx) = 0.5F;
          }
        }
      }
    }
    const Tensor probs = model.predict_proba(occluded);
    // Scanned in grid order, so the strict > keeps the first best cell.
    double best_drop = -1.0;
    std::size_t best_y = 0;
    std::size_t best_x = 0;
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const double drop = at_pred(base_probs, i) - at_pred(probs, j);
      if (drop > best_drop) {
        best_drop = drop;
        best_y = cells[j].first;
        best_x = cells[j].second;
      }
    }

    // Transplant the critical region onto held-out clean images.
    Tensor hosts({m, c, h, w});
    std::copy(clean_reference.images.data(),
              clean_reference.images.data() + m * sample, hosts.data());
    for (std::size_t t = 0; t < m; ++t) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t y = 0; y < occluder; ++y) {
          for (std::size_t xx = 0; xx < occluder; ++xx) {
            hosts.at4(t, ch, best_y + y, best_x + xx) =
                x[(ch * h + best_y + y) * w + best_x + xx];
          }
        }
      }
    }
    const Tensor host_probs = model.predict_proba(hosts);
    std::size_t fooled = 0;
    for (std::size_t t = 0; t < m; ++t) {
      if (argmax_row(host_probs.data() + t * k, k) == pred) ++fooled;
    }
    scores[i] = static_cast<double>(fooled) / static_cast<double>(m);
  }
  return scores;
}

std::vector<double> frequency_scores(const Tensor& inputs) {
  const std::size_t n = inputs.dim(0);
  const std::size_t c = inputs.dim(1);
  const std::size_t h = inputs.dim(2);
  const std::size_t w = inputs.dim(3);
  std::vector<double> scores(n, 0.0);
  // Separable DCT-II basis.
  auto dct_basis = [&](std::size_t u, std::size_t x, std::size_t len) {
    return std::cos(3.14159265358979 * (static_cast<double>(x) + 0.5) *
                    static_cast<double>(u) / static_cast<double>(len));
  };
  for (std::size_t i = 0; i < n; ++i) {
    double high = 0.0;
    double total = 1e-12;
    for (std::size_t ch = 0; ch < c; ++ch) {
      for (std::size_t u = 0; u < h; ++u) {
        for (std::size_t v = 0; v < w; ++v) {
          double coef = 0.0;
          for (std::size_t y = 0; y < h; ++y) {
            for (std::size_t x = 0; x < w; ++x) {
              coef += static_cast<double>(inputs.at4(i, ch, y, x)) *
                      dct_basis(u, y, h) * dct_basis(v, x, w);
            }
          }
          const double energy = coef * coef;
          total += energy;
          if (u + v >= (h + w) / 2) high += energy;
        }
      }
    }
    scores[i] = high / total;
  }
  return scores;
}

std::vector<double> scaleup_scores(nn::Model& model, const Tensor& inputs) {
  const std::size_t n = inputs.dim(0);
  const std::size_t k = model.num_classes();
  const std::size_t sample = inputs.size() / n;

  Tensor base_probs = model.predict_proba(inputs);
  std::vector<int> base_pred(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_pred[i] = argmax_row(base_probs.data() + i * k, k);
  }

  std::vector<double> consistent(n, 0.0);
  constexpr int kScales[] = {2, 3, 4, 5};
  for (int s : kScales) {
    Tensor scaled(inputs.shape());
    for (std::size_t p = 0; p < inputs.size(); ++p) {
      scaled.vec()[p] =
          std::clamp(inputs.vec()[p] * static_cast<float>(s), 0.0F, 1.0F);
    }
    Tensor probs = model.predict_proba(scaled);
    for (std::size_t i = 0; i < n; ++i) {
      if (argmax_row(probs.data() + i * k, k) == base_pred[i]) {
        consistent[i] += 1.0;
      }
    }
  }
  (void)sample;
  for (auto& v : consistent) v /= 4.0;
  return consistent;
}

std::vector<double> teco_scores(nn::Model& model, const Tensor& inputs,
                                util::Rng& rng) {
  const std::size_t n = inputs.dim(0);
  const std::size_t k = model.num_classes();
  const std::size_t c = inputs.dim(1);
  const std::size_t h = inputs.dim(2);
  const std::size_t w = inputs.dim(3);

  Tensor base_probs = model.predict_proba(inputs);
  std::vector<int> base_pred(n);
  for (std::size_t i = 0; i < n; ++i) {
    base_pred[i] = argmax_row(base_probs.data() + i * k, k);
  }

  constexpr std::size_t kSeverities = 4;
  constexpr std::size_t kFamilies = 3;  // noise, blur, quantize
  // first_flip[f][i] = severity (1..S) at which prediction first flips,
  // S + 1 when it never flips.
  std::vector<std::vector<double>> first_flip(
      kFamilies, std::vector<double>(n, kSeverities + 1));

  for (std::size_t fam = 0; fam < kFamilies; ++fam) {
    for (std::size_t sev = 1; sev <= kSeverities; ++sev) {
      Tensor corrupted = inputs;
      const double strength = static_cast<double>(sev);
      if (fam == 0) {
        // Gaussian noise.
        for (auto& v : corrupted.vec()) {
          v = std::clamp(
              v + static_cast<float>(rng.normal(0.0, 0.05 * strength)), 0.0F,
              1.0F);
        }
      } else if (fam == 1) {
        // Box blur with growing radius (1 pass per severity).
        for (std::size_t pass = 0; pass < sev; ++pass) {
          Tensor blurred = corrupted;
          for (std::size_t b = 0; b < n; ++b) {
            for (std::size_t ch = 0; ch < c; ++ch) {
              for (std::size_t y = 1; y + 1 < h; ++y) {
                for (std::size_t x = 1; x + 1 < w; ++x) {
                  float acc = 0.0F;
                  // ordered: fixed 3x3 stencil walk, dy-major.
                  for (int dy = -1; dy <= 1; ++dy) {
                    for (int dx = -1; dx <= 1; ++dx) {
                      acc += corrupted.at4(
                          b, ch, static_cast<std::size_t>(static_cast<int>(y) + dy),
                          static_cast<std::size_t>(static_cast<int>(x) + dx));
                    }
                  }
                  blurred.at4(b, ch, y, x) = acc / 9.0F;
                }
              }
            }
          }
          corrupted = blurred;
        }
      } else {
        // Quantization: fewer levels at higher severity.
        const float levels = 8.0F / static_cast<float>(sev);
        for (auto& v : corrupted.vec()) {
          v = std::clamp(std::round(v * levels) / levels, 0.0F, 1.0F);
        }
      }
      Tensor probs = model.predict_proba(corrupted);
      for (std::size_t i = 0; i < n; ++i) {
        if (first_flip[fam][i] > kSeverities &&
            argmax_row(probs.data() + i * k, k) != base_pred[i]) {
          first_flip[fam][i] = static_cast<double>(sev);
        }
      }
    }
  }

  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> flips(kFamilies);
    for (std::size_t fam = 0; fam < kFamilies; ++fam) {
      flips[fam] = first_flip[fam][i];
    }
    scores[i] = linalg::stddev(flips);
  }
  return scores;
}

std::vector<double> ted_scores(nn::Model& model, const Tensor& inputs,
                               const LabeledData& clean_reference,
                               std::size_t k_neighbours) {
  const std::size_t n = inputs.dim(0);
  const std::size_t k = model.num_classes();
  Tensor input_features = model.features(inputs);
  Tensor input_probs = model.predict_proba(inputs);
  Tensor ref_features = model.features(clean_reference.images);
  const auto ref_pred = model.predict(clean_reference.images);

  const std::size_t d = input_features.dim(1);
  const std::size_t ref_n = clean_reference.size();
  const std::size_t kk = std::min(k_neighbours, ref_n);

  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const int pred = argmax_row(input_probs.data() + i * k, k);
    // Distances to reference features.
    std::vector<std::pair<double, std::size_t>> dist(ref_n);
    for (std::size_t r = 0; r < ref_n; ++r) {
      double acc = 0.0;
      // ordered: ascending feature index, per reference row.
      for (std::size_t j = 0; j < d; ++j) {
        const double diff = input_features.data()[i * d + j] -
                            ref_features.data()[r * d + j];
        acc += diff * diff;  // ordered: see above
      }
      dist[r] = {acc, r};
    }
    std::partial_sort(dist.begin(), dist.begin() + static_cast<long>(kk),
                      dist.end());
    // Disagreement between feature-space neighbours' predictions and the
    // model's final prediction: triggered inputs land in the target-class
    // logit region while their features sit near their true class.
    std::size_t disagree = 0;
    for (std::size_t j = 0; j < kk; ++j) {
      if (ref_pred[dist[j].second] != pred) ++disagree;
    }
    scores[i] = static_cast<double>(disagree) / static_cast<double>(kk);
  }
  return scores;
}

std::vector<double> cd_scores(nn::Model& model, const Tensor& inputs,
                              std::size_t occluder) {
  const std::size_t n = inputs.dim(0);
  const std::size_t c = inputs.dim(1);
  const std::size_t h = inputs.dim(2);
  const std::size_t w = inputs.dim(3);
  const std::size_t k = model.num_classes();
  const auto cells = grid_cells(h, w, occluder);

  // All base predictions in one call, then one call per input for its
  // masked copies; rows are independent, so no score moves.
  const Tensor base_probs = model.predict_proba(inputs);
  std::vector<double> scores(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const int pred = argmax_row(base_probs.data() + i * k, k);
    // Count grid cells that individually suffice to keep the prediction
    // when everything else is grayed out; trigger samples need very few.
    Tensor masked({cells.size(), c, h, w}, 0.5F);
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const auto [oy, ox] = cells[j];
      for (std::size_t ch = 0; ch < c; ++ch) {
        for (std::size_t y = 0; y < occluder; ++y) {
          for (std::size_t x = 0; x < occluder; ++x) {
            masked.at4(j, ch, oy + y, ox + x) =
                inputs.at4(i, ch, oy + y, ox + x);
          }
        }
      }
    }
    const Tensor probs = model.predict_proba(masked);
    std::size_t sufficient = 0;
    for (std::size_t j = 0; j < cells.size(); ++j) {
      if (argmax_row(probs.data() + j * k, k) == pred) ++sufficient;
    }
    // Small cognitive pattern => a single cell already carries the class.
    scores[i] = static_cast<double>(sufficient) /
                static_cast<double>(cells.size());
  }
  return scores;
}

}  // namespace bprom::defenses
