#include "abft/util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

namespace abft::util {

double mean(std::span<const double> xs) {
  ABFT_REQUIRE(!xs.empty(), "mean of empty range");
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double min_value(std::span<const double> xs) {
  ABFT_REQUIRE(!xs.empty(), "min of empty range");
  return *std::min_element(xs.begin(), xs.end());
}

double max_value(std::span<const double> xs) {
  ABFT_REQUIRE(!xs.empty(), "max of empty range");
  return *std::max_element(xs.begin(), xs.end());
}

}  // namespace abft::util
