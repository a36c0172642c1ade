#include "abft/agg/cwtm.hpp"

#include <algorithm>
#include <cstdint>

#include "abft/agg/rank_kernel.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace {

/// Two nth_element partitions placing the f smallest entries in [0, f) and
/// the f largest in [n - f, n): the kept middle is exactly the sorted
/// column's positions [f, n - f).  Mutates the column (workspace scratch).
void trim_partition(double* col, int n, int f) {
  std::nth_element(col, col + f, col + n);
  std::nth_element(col + f, col + (n - f - 1), col + n);
}

/// Sorted-position trimmed sum of a column via trim_partition.  Fallback
/// for large n and for columns with duplicate entries.
double trimmed_sum_select(double* col, int n, int f) {
  if (f > 0) trim_partition(col, n, f);
  double sum = 0.0;
  for (int j = f; j < n - f; ++j) sum += col[j];
  return sum;
}

/// Rank-classified trimmed sum (see rank_kernel.hpp): an entry is kept iff
/// its rank lies in [f, n - f), which for duplicate-free columns equals
/// positional trimming of the sorted column.  Duplicates make the rank sum
/// fall short of n(n-1)/2; those columns report ok = false and take the
/// exact selection fallback.  Requires n <= detail::kRankKernelCutoff.
double trimmed_sum_rank(const double* col, int n, int f, bool& ok) {
  std::int64_t lt[detail::kRankKernelCutoff];
  detail::rank_counts(col, n, lt);
  double sum = 0.0;
  std::int64_t ranksum = 0;
  for (int j = 0; j < n; ++j) {
    ranksum += lt[j];
    sum += static_cast<std::uint64_t>(lt[j] - f) < static_cast<std::uint64_t>(n - 2 * f)
               ? col[j]
               : 0.0;
  }
  ok = ranksum == static_cast<std::int64_t>(n) * (n - 1) / 2;
  return sum;
}

}  // namespace

void CwtmAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ABFT_REQUIRE(n > 2 * f, "cwtm needs n > 2f");
  resize_output(out, d);
  auto result = out.coefficients();
  const double inv = 1.0 / static_cast<double>(n - 2 * f);

  // One numeric path for every mode and precision; the route depends only
  // on n (see kRankKernelCutoff for why it must not depend on the host).
  if (f > 0 && n <= detail::kRankKernelCutoff) {
    // Fused gather + rank-select: columns are staged a small tile at a time
    // (tile stays L1-resident, the batch itself is streamed exactly once),
    // so no full d x n transpose is materialized at all.
    constexpr int kTileCols = 16;
    ws.run_parallel(0, d, [&](int k_begin, int k_end) {
      double tile[kTileCols * detail::kRankKernelCutoff];
      for (int k0 = k_begin; k0 < k_end; k0 += kTileCols) {
        const int cols = std::min(kTileCols, k_end - k0);
        for (int i = 0; i < n; ++i) {
          const double* row = batch.row(i).data() + k0;
          for (int c = 0; c < cols; ++c) tile[c * n + i] = row[c];
        }
        for (int c = 0; c < cols; ++c) {
          double* col = tile + c * n;
          bool ok = false;
          double sum = trimmed_sum_rank(col, n, f, ok);
          if (!ok) sum = trimmed_sum_select(col, n, f);
          result[static_cast<std::size_t>(k0 + c)] = sum * inv;
        }
      }
    });
    return;
  }

  // Large-n (or f == 0) path: selection over the workspace transpose.
  ws.fill_colmajor(batch);
  ws.run_parallel(0, d, [&](int k_begin, int k_end) {
    for (int k = k_begin; k < k_end; ++k) {
      double* col = ws.colmajor.data() + static_cast<std::size_t>(k) * static_cast<std::size_t>(n);
      result[static_cast<std::size_t>(k)] = trimmed_sum_select(col, n, f) * inv;
    }
  });
}

}  // namespace abft::agg
