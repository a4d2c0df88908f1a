#include "data/profile.hpp"

#include <array>
#include <cassert>

namespace bprom::data {
namespace {

constexpr nn::ImageShape kShape16{3, 16, 16};

std::array<DatasetProfile, 8> make_registry() {
  std::array<DatasetProfile, 8> reg{};
  reg[0] = DatasetProfile{DatasetKind::kCifar10, "cifar10", 10,
                          kShape16,  12, 0.70, 0.08, 0xC1FA0010ULL,
                          4000,      2000};
  // GTSRB: 43 classes as in the real dataset; signs are lower-variance,
  // smaller clusters.
  reg[1] = DatasetProfile{DatasetKind::kGtsrb, "gtsrb", 43,
                          kShape16,  14, 0.55, 0.06, 0x6752B043ULL,
                          5000,      2500};
  reg[2] = DatasetProfile{DatasetKind::kStl10, "stl10", 10,
                          kShape16,  12, 0.75, 0.09, 0x57100010ULL,
                          4000,      2000};
  reg[3] = DatasetProfile{DatasetKind::kSvhn, "svhn", 10,
                          kShape16,  10, 0.75, 0.10, 0x54BD0010ULL,
                          4000,      2000};
  // CIFAR-100 scaled to 20 classes to keep CPU training tractable; 20
  // still keeps the "K_S >> K_T = 10" property of the class-count-mismatch
  // experiment.
  reg[4] = DatasetProfile{DatasetKind::kCifar100, "cifar100", 20,
                          kShape16,  16, 0.60, 0.07, 0xC1FA0100ULL,
                          6000,      3000};
  // Tiny-ImageNet scaled to 40 classes.
  reg[5] = DatasetProfile{DatasetKind::kTinyImageNet, "tiny-imagenet", 40,
                          kShape16,  18, 0.60, 0.07, 0x7191A6E7ULL,
                          8000,      4000};
  // ImageNet scaled to 50 classes.
  reg[6] = DatasetProfile{DatasetKind::kImageNet, "imagenet", 50,
                          kShape16,  20, 0.60, 0.07, 0x13A6E7FFULL,
                          10000,     5000};
  reg[7] = DatasetProfile{DatasetKind::kMnist, "mnist", 10,
                          kShape16,  8,  0.45, 0.04, 0x33157000ULL,
                          3000,      1500};
  return reg;
}

}  // namespace

const DatasetProfile& profile(DatasetKind kind) {
  static const auto registry = make_registry();
  const auto idx = static_cast<std::size_t>(kind);
  assert(idx < registry.size());
  return registry[idx];
}

}  // namespace bprom::data
