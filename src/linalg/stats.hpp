// Small statistics helpers shared across defenses and analysis code.
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace bprom::linalg {

double mean(const std::vector<double>& v);
double variance(const std::vector<double>& v);  // population variance
double stddev(const std::vector<double>& v);
double median(std::vector<double> v);  // by copy; v is partially sorted

/// Shannon entropy of a probability vector (natural log); tolerates zeros.
double entropy(const std::vector<double>& p);

/// Per-feature mean of matrix rows.
std::vector<double> row_mean(const Matrix& data);

/// Covariance matrix of rows (samples x features).
Matrix covariance(const Matrix& data);

/// Median absolute deviation (robust scale).
double mad(std::vector<double> v);

}  // namespace bprom::linalg
