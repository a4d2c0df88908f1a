#include "linalg/stats.hpp"

#include <algorithm>
#include <cmath>

namespace bprom::linalg {

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double acc = 0.0;
  for (double x : v) acc += x;
  return acc / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  const double m = mean(v);
  double acc = 0.0;
  for (double x : v) acc += (x - m) * (x - m);
  return acc / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid - 1), v.end());
  return 0.5 * (hi + v[mid - 1]);
}

double entropy(const std::vector<double>& p) {
  double acc = 0.0;
  for (double x : p) {
    if (x > 1e-12) acc -= x * std::log(x);
  }
  return acc;
}

std::vector<double> row_mean(const Matrix& data) {
  std::vector<double> m(data.cols(), 0.0);
  if (data.rows() == 0) return m;
  for (std::size_t i = 0; i < data.rows(); ++i) {
    for (std::size_t j = 0; j < data.cols(); ++j) m[j] += data(i, j);
  }
  for (auto& x : m) x /= static_cast<double>(data.rows());
  return m;
}

Matrix covariance(const Matrix& data) {
  const std::size_t n = data.rows();
  const std::size_t d = data.cols();
  Matrix cov(d, d);
  if (n < 2) return cov;
  const auto m = row_mean(data);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < d; ++a) {
      const double xa = data(i, a) - m[a];
      for (std::size_t b = a; b < d; ++b) {
        cov(a, b) += xa * (data(i, b) - m[b]);
      }
    }
  }
  for (std::size_t a = 0; a < d; ++a) {
    for (std::size_t b = a; b < d; ++b) {
      cov(a, b) /= static_cast<double>(n - 1);
      cov(b, a) = cov(a, b);
    }
  }
  return cov;
}

double mad(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const double med = median(v);
  for (auto& x : v) x = std::abs(x - med);
  return median(std::move(v));
}

}  // namespace bprom::linalg
