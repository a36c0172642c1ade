#include "abft/agg/cwmed.hpp"

#include <algorithm>
#include <cstdint>

#include "abft/agg/rank_kernel.hpp"

namespace abft::agg {

Vector CwmedAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  const int dim = validate_gradients(gradients, f);
  const std::size_t n = gradients.size();
  Vector out(dim);
  std::vector<double> column(n);
  for (int k = 0; k < dim; ++k) {
    for (std::size_t i = 0; i < n; ++i) column[i] = gradients[i][k];
    std::sort(column.begin(), column.end());
    out[k] = (n % 2 == 1) ? column[n / 2] : 0.5 * (column[n / 2 - 1] + column[n / 2]);
  }
  return out;
}

namespace {

/// Rank-classified median (see rank_kernel.hpp): for duplicate-free columns
/// the median entries are exactly those with rank n/2 (and n/2 - 1 when n
/// is even).  Duplicates (rank sum short of n(n-1)/2) report ok = false;
/// the caller falls back to exact selection.
double median_rank(const double* col, int n, bool& ok) {
  std::int64_t lt[detail::kRankKernelCutoff];
  detail::rank_counts(col, n, lt);
  const std::int64_t hi_rank = n / 2;
  const std::int64_t lo_rank = n / 2 - 1;
  double hi = 0.0, lo = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    hi += lt[j] == hi_rank ? col[j] : 0.0;
    lo += lt[j] == lo_rank ? col[j] : 0.0;
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return n % 2 == 0 ? 0.5 * (lo + hi) : hi;
}

}  // namespace

void CwmedAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                     AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  resize_output(out, d);
  auto result = out.coefficients();
  // One numeric path for every mode and precision.  The rank-classified
  // median picks the same element(s) as nth_element, so the constant
  // crossover only decides speed, never output.
  const bool use_rank_kernel = n > 1 && n <= detail::kRankKernelCutoff;
  ws.fill_colmajor(batch);
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      double* col = ws.colmajor.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      if (use_rank_kernel) {
        bool ok = false;
        const double med = median_rank(col, n, ok);
        if (ok) {
          result[static_cast<std::size_t>(k)] = med;
          continue;
        }
      }
      result[static_cast<std::size_t>(k)] = median_inplace(col, col + n);
    }
  });
}

}  // namespace abft::agg
