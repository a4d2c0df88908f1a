// CART binary-classification tree (Gini impurity), the base learner of the
// random-forest meta-classifier.
#pragma once

#include <cstddef>
#include <vector>

#include "util/rng.hpp"

namespace bprom::meta {

struct TreeConfig {
  std::size_t max_depth = 8;
  std::size_t min_samples_leaf = 1;
  /// Number of features examined per split; 0 = sqrt(total features).
  std::size_t feature_subsample = 0;
};

class DecisionTree {
 public:
  /// Fit on rows of `x` with binary labels in {0, 1}; `sample_idx` selects
  /// the (possibly bootstrapped, repeated) training rows.
  void fit(const std::vector<std::vector<float>>& x,
           const std::vector<int>& y,
           const std::vector<std::size_t>& sample_idx,
           const TreeConfig& config, util::Rng& rng);

  /// P(label = 1).
  [[nodiscard]] double predict_proba(const std::vector<float>& x) const;

  /// Wire field list of the fitted tree structure + leaf stats (defined in
  /// io/serialize.cpp, which runs it for RandomForest::save and load).
  /// Reading validates structure — children strictly after their parent
  /// (fit() builds trees that way, and it guarantees the predict walk
  /// terminates) and split features inside [0, feature_dim) — so a
  /// CRC-valid but hand-corrupted file raises io::IoError instead of
  /// reading out of bounds or looping.
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self, std::size_t feature_dim);

 private:
  struct Node {
    int feature = -1;        // -1 = leaf
    float threshold = 0.0F;
    double p1 = 0.5;         // leaf probability of class 1
    int left = -1;
    int right = -1;
  };

  int build(const std::vector<std::vector<float>>& x,
            const std::vector<int>& y, std::vector<std::size_t>& idx,
            std::size_t depth, const TreeConfig& config, util::Rng& rng);

  std::vector<Node> nodes_;
};

}  // namespace bprom::meta
