// Numerics tests: matrix algebra, eigendecomposition, PCA, k-means, stats.
#include <gtest/gtest.h>
#include <cmath>
#include "linalg/eigen.hpp"
#include "linalg/kmeans.hpp"
#include "linalg/matrix.hpp"
#include "linalg/pca.hpp"
#include "linalg/stats.hpp"
namespace bprom::linalg {
namespace {

TEST(Matrix, MultiplyMatchesHandComputation) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = a.multiply(b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6);
  Matrix tt = t.transpose();
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(tt(i, j), a(i, j));
}

TEST(Matrix, VectorMultiply) {
  Matrix a{{2, 0}, {0, 3}};
  auto y = a.multiply(std::vector<double>{4, 5});
  EXPECT_DOUBLE_EQ(y[0], 8);
  EXPECT_DOUBLE_EQ(y[1], 15);
}

TEST(Eigen, DiagonalMatrix) {
  Matrix d{{3, 0}, {0, 1}};
  auto eig = symmetric_eigen(d);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-10);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-10);
}

TEST(Eigen, KnownSymmetricMatrix) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix m{{2, 1}, {1, 2}};
  auto eig = symmetric_eigen(m);
  EXPECT_NEAR(eig.values[0], 3.0, 1e-9);
  EXPECT_NEAR(eig.values[1], 1.0, 1e-9);
  // Leading eigenvector proportional to (1,1)/sqrt(2).
  EXPECT_NEAR(std::abs(eig.vectors[0][0]), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(Eigen, ReconstructsMatrix) {
  Matrix m{{4, 1, 0}, {1, 3, 1}, {0, 1, 2}};
  auto eig = symmetric_eigen(m);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      double sum = 0;
      for (std::size_t k = 0; k < 3; ++k) {
        sum += eig.values[k] * eig.vectors[k][a] * eig.vectors[k][b];
      }
      EXPECT_NEAR(sum, m(a, b), 1e-8);
    }
  }
}

TEST(Eigen, LeadingSingularOfRankOne) {
  // Rank-1 matrix u v^T: leading right singular direction is v.
  Matrix a(4, 3);
  const double u[4] = {1, 2, -1, 0.5};
  const double v[3] = {0.6, 0.8, 0.0};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = u[i] * v[j];
  auto top = leading_singular(a);
  EXPECT_NEAR(std::abs(top.direction[0]), 0.6, 1e-6);
  EXPECT_NEAR(std::abs(top.direction[1]), 0.8, 1e-6);
  EXPECT_NEAR(std::abs(top.direction[2]), 0.0, 1e-6);
}

TEST(Pca, RecoversDominantAxis) {
  util::Rng rng(5);
  Matrix data(200, 2);
  for (std::size_t i = 0; i < 200; ++i) {
    const double t = rng.normal();
    data(i, 0) = 3.0 * t + 0.05 * rng.normal();
    data(i, 1) = 1.0 * t + 0.05 * rng.normal();
  }
  auto pca = fit_pca(data, 1);
  const double ratio =
      std::abs(pca.components[0][1] / pca.components[0][0]);
  EXPECT_NEAR(ratio, 1.0 / 3.0, 0.05);
}

TEST(Pca, ProjectionCentersData) {
  Matrix data{{1, 1}, {3, 3}};
  auto pca = fit_pca(data, 1);
  auto p1 = pca.project({1, 1});
  auto p2 = pca.project({3, 3});
  EXPECT_NEAR(p1[0] + p2[0], 0.0, 1e-9);
}

TEST(KMeans, SeparatesTwoBlobs) {
  util::Rng rng(7);
  Matrix data(60, 2);
  for (std::size_t i = 0; i < 30; ++i) {
    data(i, 0) = rng.normal(0.0, 0.1);
    data(i, 1) = rng.normal(0.0, 0.1);
    data(30 + i, 0) = rng.normal(5.0, 0.1);
    data(30 + i, 1) = rng.normal(5.0, 0.1);
  }
  auto result = kmeans(data, 2, rng);
  EXPECT_EQ(result.sizes[0] + result.sizes[1], 60u);
  EXPECT_EQ(result.sizes[0], 30u);
  // All of first blob share a cluster.
  for (std::size_t i = 1; i < 30; ++i)
    EXPECT_EQ(result.assignment[i], result.assignment[0]);
  const double sil = silhouette_two_clusters(data, result.assignment);
  EXPECT_GT(sil, 0.8);
}

TEST(Stats, BasicMoments) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_DOUBLE_EQ(variance(v), 1.25);
  EXPECT_DOUBLE_EQ(median(v), 2.5);
}

TEST(Stats, EntropyUniformIsLogK) {
  std::vector<double> p(8, 0.125);
  EXPECT_NEAR(entropy(p), std::log(8.0), 1e-9);
  std::vector<double> onehot{1, 0, 0, 0};
  EXPECT_NEAR(entropy(onehot), 0.0, 1e-9);
}

TEST(Stats, MadRobustToOutlier) {
  std::vector<double> v{1, 1.1, 0.9, 1.05, 100.0};
  EXPECT_LT(mad(v), 0.2);
}

}  // namespace
}  // namespace bprom::linalg
