// CMA-ES — the gradient-free optimizer the paper uses to learn the visual
// prompt for the *suspicious* model, where only black-box confidence-vector
// queries are available.
//
// Two covariance modes:
//   kFull      — classic (mu/mu_w, lambda) CMA-ES with rank-one + rank-mu
//                updates and periodic eigendecomposition.  O(n^2) sampling,
//                O(n^3) decomposition; use for n up to a few hundred.
//   kSeparable — sep-CMA-ES (Ros & Hansen 2008): diagonal covariance,
//                O(n) per sample.  Default for prompt dimensions (~500+).
//
// Minimization convention throughout.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace bprom::opt {

enum class CovarianceMode { kFull, kSeparable };

struct CmaEsConfig {
  std::size_t dim = 0;
  double sigma0 = 0.3;
  /// 0 selects the standard 4 + floor(3 ln n).
  std::size_t lambda = 0;
  CovarianceMode mode = CovarianceMode::kSeparable;
  std::size_t max_evaluations = 2000;
  std::uint64_t seed = 13;
  /// Stop early when best f stops improving by more than tol for
  /// `stall_generations` consecutive generations (0 disables).
  double tol = 1e-10;
  std::size_t stall_generations = 40;
};

struct CmaEsResult {
  std::vector<double> best_x;
  double best_f = 0.0;
  std::size_t evaluations = 0;
  std::size_t generations = 0;
};

class CmaEs {
 public:
  using Objective = std::function<double(const std::vector<double>&)>;
  /// Receives one whole generation's candidate vector at a time and returns
  /// fitness[i] for candidates[i].  Gives the caller the full generation to
  /// evaluate concurrently; CMA-ES itself only needs the final
  /// per-candidate values, so any evaluation schedule is admissible.
  using BatchObjective = std::function<std::vector<double>(
      const std::vector<std::vector<double>>&)>;

  CmaEs(CmaEsConfig config, std::vector<double> x0);

  /// Sample lambda candidate solutions.
  std::vector<std::vector<double>> ask();

  /// Report fitness for the candidates from the last ask() (minimization).
  void tell(const std::vector<std::vector<double>>& candidates,
            const std::vector<double>& fitness);

  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }
  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] const std::vector<double>& best_x() const { return best_x_; }
  [[nodiscard]] double best_f() const { return best_f_; }
  [[nodiscard]] std::size_t evaluations() const { return evaluations_; }
  /// Population size per generation (resolved from config.lambda).
  [[nodiscard]] std::size_t lambda() const { return lambda_; }

  /// Run the full ask/tell loop against an objective, one candidate at a
  /// time (evaluated in ascending candidate order).
  CmaEsResult optimize(const Objective& objective);

  /// Run the full ask/tell loop handing each generation's candidates to the
  /// caller at once.  With a zero evaluation budget no generation runs and
  /// the result reports best_f = +huge (never a fabricated perfect loss).
  CmaEsResult optimize(const BatchObjective& batch_objective);

 private:
  void update_eigensystem();

  CmaEsConfig config_;
  util::Rng rng_;
  std::size_t lambda_;
  std::size_t mu_;
  std::vector<double> weights_;
  double mu_eff_ = 0.0;
  double cc_ = 0.0;
  double cs_ = 0.0;
  double c1_ = 0.0;
  double cmu_ = 0.0;
  double damps_ = 0.0;
  double chi_n_ = 0.0;

  std::vector<double> mean_;
  double sigma_;
  std::vector<double> pc_;
  std::vector<double> ps_;

  // Full mode state.
  linalg::Matrix cov_;
  linalg::Matrix eig_basis_;        // columns = eigenvectors (stored row-major)
  std::vector<double> eig_sqrt_;    // sqrt eigenvalues
  std::size_t eig_stale_ = 0;

  // Separable mode state.
  std::vector<double> diag_cov_;

  // Cached sample displacements (z-space) from the last ask().
  std::vector<std::vector<double>> last_z_;

  std::vector<double> best_x_;
  double best_f_ = 1e300;
  std::size_t evaluations_ = 0;
  std::size_t generations_ = 0;
};

}  // namespace bprom::opt
