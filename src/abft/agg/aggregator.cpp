#include "abft/agg/aggregator.hpp"

namespace abft::agg {

Vector GradientAggregator::aggregate(std::span<const Vector> gradients, int f) const {
  GradientBatch batch;
  batch.pack(gradients);
  AggregatorWorkspace workspace;
  return aggregate_batched(batch, f, workspace);
}

void GradientAggregator::aggregate_rows(Vector& out, const GradientBatch& batch,
                                        std::span<const int> rows, int f,
                                        AggregatorWorkspace& ws) const {
  GradientBatch& gather = ws.row_gather;
  gather.reshape(static_cast<int>(rows.size()), batch.cols());
  for (std::size_t k = 0; k < rows.size(); ++k) {
    gather.set_row(static_cast<int>(k), batch.row(rows[k]));
  }
  aggregate_into(out, gather, f, ws);
}

void GradientAggregator::aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                                          std::span<const int> ids, int shards, int f,
                                          AggregatorWorkspace& ws) const {
  const int n = static_cast<int>(ids.size());
  const int d = batch.cols();
  outputs.reshape(shards, d);
  // Each group reuses ONE sub-workspace/gather-batch across its shards, so
  // the scratch footprint is width * O((n/S)^2), never S * O((n/S)^2).
  // Shard results do not depend on the grouping (kernels recompute all
  // derived state per call), so the output is bit-identical at every width.
  const int width = ws.shard_groups(shards);
  ws.run_parallel(0, width, [&](int group_begin, int group_end) {
    for (int g = group_begin; g < group_end; ++g) {
      AggregatorWorkspace& sub = *ws.hier_groups[static_cast<std::size_t>(g)];
      GradientBatch& gather = ws.hier_gather[static_cast<std::size_t>(g)];
      Vector& shard_out = ws.hier_out[static_cast<std::size_t>(g)];
      for (int s = shard_begin(shards, width, g); s < shard_begin(shards, width, g + 1); ++s) {
        const int row_begin = shard_begin(n, shards, s);
        const int rows = shard_begin(n, shards, s + 1) - row_begin;
        gather.reshape(rows, d);
        for (int r = 0; r < rows; ++r) {
          gather.set_row(r, batch.row(ids[static_cast<std::size_t>(row_begin + r)]));
        }
        aggregate_into(shard_out, gather, f, sub);
        const auto coeffs = shard_out.coefficients();
        outputs.set_row(s, std::span<const double>(coeffs.data(), coeffs.size()));
      }
    }
  });
}

Vector GradientAggregator::aggregate_batched(const GradientBatch& batch, int f,
                                             AggregatorWorkspace& workspace) const {
  Vector out;
  aggregate_into(out, batch, f, workspace);
  return out;
}

}  // namespace abft::agg
