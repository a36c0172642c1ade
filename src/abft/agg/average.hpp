// Plain averaging — the traditional (non-robust) DGD aggregation; the paper's
// baseline that fails under Byzantine faults (Figures 2-5, red curves).
#pragma once

#include "abft/agg/aggregator.hpp"

namespace abft::agg {

class AverageAggregator final : public GradientAggregator {
 public:
  void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                      AggregatorWorkspace& workspace) const override;
  [[nodiscard]] std::string_view name() const noexcept override { return "average"; }
};

}  // namespace abft::agg
