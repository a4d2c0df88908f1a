// Synthetic image dataset generator.
//
// Generative model per dataset profile:
//   class centers  mu_k ~ N(0, I_d)           (fixed by identity_seed)
//   latent sample  z = mu_k + spread * eps,   eps ~ N(0, I_d)
//   rendering      x = sigma(W z + b) + pixel noise, clipped to [0, 1]
// with a fixed random linear render map W: R^d -> R^{C*H*W} and
// sigma = logistic squashing.  Rendering shares a base map family across
// datasets (drawn from the identity seed XOR a family constant) so that a
// model trained on one dataset carries transferable low-level structure —
// the property visual prompting exploits in the real world.
//
// The resulting images have exactly the geometry BPROM reasons about:
// per-class clusters in feature space with dataset-specific "shape", which
// poisoning then distorts through trigger shortcut learning.
#pragma once

#include "data/profile.hpp"
#include "nn/trainer.hpp"
#include "util/rng.hpp"

namespace bprom::data {

using nn::LabeledData;

class DatasetGenerator {
 public:
  explicit DatasetGenerator(const DatasetProfile& profile);

  /// Draw n labeled samples (classes balanced up to rounding).
  [[nodiscard]] LabeledData sample(std::size_t n, util::Rng& rng) const;

  [[nodiscard]] const DatasetProfile& profile() const { return profile_; }

 private:
  void render(const double* z, float* pixels, util::Rng& rng) const;

  DatasetProfile profile_;
  std::vector<std::vector<double>> centers_;  // [classes][latent_dim]
  std::vector<double> render_w_;              // [pixels x latent_dim]
  std::vector<double> render_b_;              // [pixels]
};

/// A dataset with standard train/test splits.
struct Dataset {
  DatasetProfile profile;
  LabeledData train;
  LabeledData test;
};

/// Build train/test splits of the given kind.  `seed` controls the *samples*
/// (the distribution itself is fixed by the profile's identity seed); pass 0
/// sizes to use the profile defaults.
Dataset make_dataset(DatasetKind kind, std::uint64_t seed,
                     std::size_t train_size = 0, std::size_t test_size = 0);

/// Same, but from an explicit (possibly customized) profile — used by the
/// hardness ablations.
Dataset make_dataset(const DatasetProfile& profile, std::uint64_t seed,
                     std::size_t train_size = 0, std::size_t test_size = 0);

}  // namespace bprom::data
