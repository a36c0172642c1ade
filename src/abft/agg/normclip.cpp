#include "abft/agg/normclip.hpp"

#include <algorithm>

namespace abft::agg {

void NormClipAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                        AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  ws.fill_norms(batch);
  ws.scratch.assign(ws.norms.begin(), ws.norms.end());
  const double clip = median_inplace(ws.scratch.data(), ws.scratch.data() + n);
  resize_output(out, d);
  auto acc = out.coefficients();
  std::fill(acc.begin(), acc.end(), 0.0);
  for (int i = 0; i < n; ++i) {
    const double norm = ws.norms[static_cast<std::size_t>(i)];
    const double* row = batch.row(i).data();
    if (norm > clip && norm > 0.0) {
      const double s = clip / norm;
      for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += s * row[k];
    } else {
      for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] += row[k];
    }
  }
  const double inv = 1.0 / static_cast<double>(n);
  for (int k = 0; k < d; ++k) acc[static_cast<std::size_t>(k)] *= inv;
}

}  // namespace abft::agg
