#include "metrics/roc.hpp"

#include <algorithm>
#include <cassert>

namespace bprom::metrics {

double auroc(const std::vector<double>& scores,
             const std::vector<int>& labels) {
  assert(scores.size() == labels.size());
  double wins = 0.0;
  std::size_t pos = 0;
  std::size_t neg = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    if (labels[i] != 1) continue;
    ++pos;
    for (std::size_t j = 0; j < scores.size(); ++j) {
      if (labels[j] == 1) continue;
      if (scores[i] > scores[j]) {
        wins += 1.0;
      } else if (scores[i] == scores[j]) {
        wins += 0.5;
      }
    }
  }
  for (int l : labels) neg += static_cast<std::size_t>(l != 1);
  if (pos == 0 || neg == 0) return 0.5;
  return wins / (static_cast<double>(pos) * static_cast<double>(neg));
}

BinaryReport binary_report(const std::vector<double>& scores,
                           const std::vector<int>& labels, double threshold) {
  assert(scores.size() == labels.size());
  BinaryReport r;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const bool pred = scores[i] >= threshold;
    const bool truth = labels[i] == 1;
    if (pred && truth) {
      ++r.tp;
    } else if (pred && !truth) {
      ++r.fp;
    } else if (!pred && truth) {
      ++r.fn;
    } else {
      ++r.tn;
    }
  }
  const double tp = static_cast<double>(r.tp);
  r.precision = r.tp + r.fp > 0 ? tp / static_cast<double>(r.tp + r.fp) : 0.0;
  r.recall = r.tp + r.fn > 0 ? tp / static_cast<double>(r.tp + r.fn) : 0.0;
  r.f1 = r.precision + r.recall > 0.0
             ? 2.0 * r.precision * r.recall / (r.precision + r.recall)
             : 0.0;
  r.accuracy = scores.empty()
                   ? 0.0
                   : static_cast<double>(r.tp + r.tn) /
                         static_cast<double>(scores.size());
  return r;
}

double best_f1(const std::vector<double>& scores,
               const std::vector<int>& labels) {
  double best = 0.0;
  std::vector<double> thresholds = scores;
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  for (double t : thresholds) {
    best = std::max(best, binary_report(scores, labels, t).f1);
  }
  return best;
}

}  // namespace bprom::metrics
