// Random-forest binary classifier — the paper's meta-model f_meta.
//
// The paper uses 10,000 trees; tree count is configurable and AUROC
// saturates at a few hundred at this problem scale.
#pragma once

#include "meta/decision_tree.hpp"

namespace bprom::io {
class Writer;
class Reader;
}  // namespace bprom::io

namespace bprom::meta {

struct ForestConfig {
  std::size_t trees = 300;
  TreeConfig tree;
  std::uint64_t seed = 19;
};

class RandomForest {
 public:
  explicit RandomForest(ForestConfig config = {});

  /// Fit on feature rows with binary labels {0 = clean, 1 = backdoor}.
  void fit(const std::vector<std::vector<float>>& x,
           const std::vector<int>& y);

  /// P(backdoor).
  [[nodiscard]] double predict_proba(const std::vector<float>& x) const;

  /// Hard verdict at the 0.5 threshold.
  [[nodiscard]] int predict(const std::vector<float>& x) const {
    return predict_proba(x) >= 0.5 ? 1 : 0;
  }

  [[nodiscard]] std::size_t tree_count() const { return trees_.size(); }
  [[nodiscard]] const ForestConfig& config() const { return config_; }

  /// Binary persistence of config + every fitted tree: save() and load()
  /// run the one field list `fields` (all three defined in
  /// io/serialize.cpp, which also runs the list inside detectors).
  void save(io::Writer& writer) const;
  static RandomForest load(io::Reader& reader);
  template <class Ar, class Self>
  static void fields(Ar& ar, Self& self);

 private:
  ForestConfig config_;
  std::vector<DecisionTree> trees_;
  /// Feature-vector length seen at fit() time; persisted so load() can
  /// bound-check every tree's split features.  0 = never fitted.
  std::size_t feature_dim_ = 0;
};

}  // namespace bprom::meta
