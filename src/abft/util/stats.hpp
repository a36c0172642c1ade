// Small descriptive-statistics helpers used by the benches.
#pragma once

#include <span>

namespace abft::util {

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);  // population variance
double stddev(std::span<const double> xs);
double min_value(std::span<const double> xs);
double max_value(std::span<const double> xs);

}  // namespace abft::util
