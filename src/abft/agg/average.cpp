#include "abft/agg/average.hpp"

#include <algorithm>

namespace abft::agg {

void AverageAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                       AggregatorWorkspace& /*ws*/) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  for (int i = 0; i < n; ++i) {
    const double* row = batch.row(i).data();
    for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += row[k];
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

}  // namespace abft::agg
