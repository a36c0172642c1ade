// Gradient-filter (robust gradient aggregation) interface — Section 4's
// GradFilter : R^{d x n} -> R^d.  The server hands the filter all n received
// gradients plus the fault-tolerance parameter f.
//
// Each rule has one implementation, aggregate_into(out, batch, f, ws): the
// gradients arrive packed in a contiguous GradientBatch, the rule draws
// scratch from the caller's AggregatorWorkspace, and the steady state
// performs no heap allocation.  aggregate(span, f) is a convenience adapter
// over it for callers holding a family of Vectors, and aggregate_rows one
// for callers whose rows sit scattered in a larger batch.
#pragma once

#include <span>
#include <string_view>

#include "abft/agg/batch.hpp"
#include "abft/linalg/vector.hpp"

namespace abft::agg {

using linalg::Vector;

class GradientAggregator {
 public:
  virtual ~GradientAggregator() = default;

  /// Aggregates n received gradients assuming at most f of them are faulty:
  /// packs them into a GradientBatch and runs aggregate_into with a fresh
  /// exact-mode workspace (allocates; not for the hot path).  Preconditions
  /// (checked): gradients non-empty and equal-dimension, 0 <= f < n, and f
  /// small enough for the specific rule (documented per rule).
  [[nodiscard]] virtual Vector aggregate(std::span<const Vector> gradients, int f) const;

  /// Aggregates the rows of `batch` into a caller-owned output vector,
  /// resized to the batch dimension, drawing all scratch from `workspace`.
  virtual void aggregate_into(Vector& out, const GradientBatch& batch, int f,
                              AggregatorWorkspace& workspace) const = 0;

  /// Aggregates the batch rows named by `rows`, in that order, as
  /// aggregate_into would aggregate them packed (rows.size() gradients).
  /// The default gathers them into workspace.row_gather and runs
  /// aggregate_into; an override must write the default's bits at every
  /// thread count.
  virtual void aggregate_rows(Vector& out, const GradientBatch& batch, std::span<const int> rows,
                              int f, AggregatorWorkspace& workspace) const;

  /// One hierarchy level's leaves in one call (agg/hierarchy.hpp): shard s
  /// holds the batch rows ids[shard_begin(n, shards, s), shard_begin(n,
  /// shards, s + 1)), n = ids.size(), and its aggregate at budget f goes to
  /// row s of `outputs` (reshaped to shards x d).  The default gathers each
  /// shard and runs aggregate_into on it, the shards split over up to
  /// workspace.parallel_width() groups, each with one sub-workspace
  /// (AggregatorWorkspace::shard_groups).  An override must write exactly
  /// the rows the default writes, at every thread count.
  virtual void aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                                std::span<const int> ids, int shards, int f,
                                AggregatorWorkspace& workspace) const;

  /// Convenience wrapper around aggregate_into for callers that want a fresh
  /// Vector (tests, examples); not for the hot path.
  [[nodiscard]] Vector aggregate_batched(const GradientBatch& batch, int f,
                                         AggregatorWorkspace& workspace) const;

  /// The largest f this rule accepts for n gradients (the rule's own
  /// precondition, e.g. n > 2f for CWTM), or -1 when the rule cannot run on
  /// n gradients at any f.  Round engines clamp the declared fault bound to
  /// min(f, max_usable_f(n)) so a round in which delivery shrinks n
  /// (elimination, partial participation, stragglers, churn) still
  /// aggregates with the strongest f the rule tolerates instead of throwing
  /// — and hold position on a -1 round.  The default is the generic batch
  /// precondition f < n.
  [[nodiscard]] virtual int max_usable_f(int n) const noexcept { return n - 1; }

  /// The smallest f this rule can run with at all (Bulyan's selection
  /// schedule requires f >= 1); engines hold position when the shrunk bound
  /// falls below it.  The default is the generic f >= 0.
  [[nodiscard]] virtual int min_usable_f() const noexcept { return 0; }

  /// Stable identifier, e.g. "cge"; used by the registry and bench labels.
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
};

/// Balanced contiguous split of n items into `parts`: part p is
/// [shard_begin(n, parts, p), shard_begin(n, parts, p + 1)), of n / parts
/// or n / parts + 1 items.
inline int shard_begin(int n, int parts, int p) {
  return static_cast<int>(static_cast<long long>(n) * p / parts);
}

}  // namespace abft::agg
