// Detection metrics: AUROC, F1 / precision / recall.
//
// Convention: higher score = more likely positive (backdoored / poisoned).
#pragma once

#include <cstddef>
#include <vector>

namespace bprom::metrics {

/// Area under the ROC curve via the rank statistic (ties get half credit).
double auroc(const std::vector<double>& scores, const std::vector<int>& labels);

struct BinaryReport {
  double precision = 0.0;
  double recall = 0.0;
  double f1 = 0.0;
  double accuracy = 0.0;
  std::size_t tp = 0, fp = 0, tn = 0, fn = 0;
};

/// Classification report at a fixed threshold.
BinaryReport binary_report(const std::vector<double>& scores,
                           const std::vector<int>& labels, double threshold);

/// F1 at the threshold that maximizes it (standard for detection tables
/// when the method does not define its own operating point).
double best_f1(const std::vector<double>& scores,
               const std::vector<int>& labels);

}  // namespace bprom::metrics
