#include "abft/agg/aggregator.hpp"

#include "abft/util/check.hpp"

namespace abft::agg {

int validate_gradients(std::span<const Vector> gradients, int f) {
  ABFT_REQUIRE(!gradients.empty(), "aggregation needs at least one gradient");
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(f < static_cast<int>(gradients.size()),
               "fault bound f must be smaller than the number of gradients");
  const int dim = gradients.front().dim();
  ABFT_REQUIRE(dim > 0, "gradients must be non-empty vectors");
  for (const auto& g : gradients) {
    ABFT_REQUIRE(g.dim() == dim, "all gradients must share a dimension");
  }
  return dim;
}

void GradientAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                        AggregatorWorkspace& /*workspace*/) const {
  validate_batch(batch, f);
  const auto gradients = batch.unpack();
  out = aggregate(gradients, f);
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
