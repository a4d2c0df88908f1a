// Dataset profiles.
//
// The paper evaluates on CIFAR-10, GTSRB, STL-10, SVHN, CIFAR-100,
// Tiny-ImageNet and ImageNet.  Offline we substitute synthetic equivalents:
// each profile fixes the number of classes, the image geometry, the latent
// cluster geometry, and an identity seed so that (say) cifar10-like and
// stl10-like are *different* distributions with the class-cluster structure
// BPROM's analysis depends on.  Class counts for the very large datasets are
// scaled down to keep CPU training tractable while preserving the "many
// more classes than the target task" property the corresponding
// experiments test.
#pragma once

#include <cstdint>
#include <string>

#include "nn/model.hpp"

namespace bprom::data {

enum class DatasetKind {
  kCifar10,
  kGtsrb,
  kStl10,
  kSvhn,
  kCifar100,
  kTinyImageNet,
  kImageNet,
  kMnist,
};

struct DatasetProfile {
  DatasetKind kind{};
  std::string name;
  std::size_t classes = 10;
  nn::ImageShape shape{};
  std::size_t latent_dim = 12;
  /// Intra-class latent spread relative to unit inter-class scale.
  double cluster_spread = 0.35;
  /// Additive pixel noise after rendering.
  double pixel_noise = 0.04;
  /// Seed that fixes this dataset's class centers and render map.
  std::uint64_t identity_seed = 0;
  /// Default split sizes.
  std::size_t train_size = 4000;
  std::size_t test_size = 2000;
};

/// Registry lookup.
const DatasetProfile& profile(DatasetKind kind);

}  // namespace bprom::data
