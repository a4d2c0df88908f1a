// Metric correctness against hand-computed values.
#include <gtest/gtest.h>
#include <cstdio>
#include "metrics/roc.hpp"
#include "metrics/scatter.hpp"
namespace bprom::metrics {
namespace {

TEST(Auroc, PerfectSeparation) {
  EXPECT_DOUBLE_EQ(auroc({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
}

TEST(Auroc, PerfectInversion) {
  EXPECT_DOUBLE_EQ(auroc({0.1, 0.2, 0.8, 0.9}, {1, 1, 0, 0}), 0.0);
}

TEST(Auroc, Random) {
  EXPECT_DOUBLE_EQ(auroc({0.5, 0.5, 0.5, 0.5}, {1, 0, 1, 0}), 0.5);
}

TEST(Auroc, HandComputedPartial) {
  // scores pos {0.8, 0.4}, neg {0.6, 0.2}: pairs (0.8>0.6),(0.8>0.2),
  // (0.4<0.6),(0.4>0.2) -> 3/4.
  EXPECT_DOUBLE_EQ(auroc({0.8, 0.4, 0.6, 0.2}, {1, 1, 0, 0}), 0.75);
}

TEST(Auroc, DegenerateSingleClass) {
  EXPECT_DOUBLE_EQ(auroc({0.3, 0.7}, {1, 1}), 0.5);
}

TEST(BinaryReport, HandComputed) {
  auto r = binary_report({0.9, 0.6, 0.4, 0.2}, {1, 0, 1, 0}, 0.5);
  EXPECT_EQ(r.tp, 1u);
  EXPECT_EQ(r.fp, 1u);
  EXPECT_EQ(r.fn, 1u);
  EXPECT_EQ(r.tn, 1u);
  EXPECT_DOUBLE_EQ(r.precision, 0.5);
  EXPECT_DOUBLE_EQ(r.recall, 0.5);
  EXPECT_DOUBLE_EQ(r.f1, 0.5);
}

TEST(BestF1, FindsPerfectThreshold) {
  EXPECT_DOUBLE_EQ(best_f1({0.9, 0.8, 0.2, 0.1}, {1, 1, 0, 0}), 1.0);
}

TEST(Scatter, AsciiContainsGlyphsAndLegend) {
  std::vector<ScatterSeries> series = {{"alpha", {0, 1}, {0, 1}},
                                       {"beta", {1, 0}, {0, 1}}};
  const std::string plot = ascii_scatter(series, 20, 10);
  EXPECT_NE(plot.find("alpha"), std::string::npos);
  EXPECT_NE(plot.find('o'), std::string::npos);
  EXPECT_NE(plot.find('x'), std::string::npos);
}

TEST(Scatter, CsvRoundTrip) {
  std::vector<ScatterSeries> series = {{"s", {1.5}, {2.5}}};
  const std::string path = "/tmp/bprom_test_scatter.csv";
  write_scatter_csv(path, series);
  FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);  // header
  ASSERT_NE(std::fgets(buf, sizeof buf, f), nullptr);
  EXPECT_EQ(std::string(buf).rfind("s,1.5,2.5", 0), 0u);
  std::fclose(f);
}

}  // namespace
}  // namespace bprom::metrics
