#include "abft/agg/hierarchy.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "abft/agg/registry.hpp"
#include "abft/util/check.hpp"
#include "abft/util/rng.hpp"

namespace abft::agg {

std::string hierarchy_label(const HierarchyConfig& config) {
  std::string label =
      "hier-" + std::to_string(config.shards) + "-" + config.leaf_rule + "-" + config.root_rule;
  if (config.f_leaf >= 0) label += "-fl" + std::to_string(config.f_leaf);
  return label;
}

std::string hierarchy_label(const HierarchyConfig& config, int n) {
  HierarchyConfig effective = config;
  effective.shards = std::min(config.shards, std::max(n, 1));
  return hierarchy_label(effective);
}

HierarchicalAggregator::HierarchicalAggregator(HierarchyConfig config)
    : config_(std::move(config)),
      leaf_(make_aggregator(config_.leaf_rule)),
      root_(make_aggregator(config_.root_rule)),
      label_(hierarchy_label(config_)) {
  ABFT_REQUIRE(config_.shards >= 1, "hierarchy: shards must be >= 1");
  ABFT_REQUIRE(config_.f_leaf >= -1, "hierarchy: f_leaf must be >= 0, or -1 for auto");
}

HierarchyBounds HierarchicalAggregator::bounds(int n, int f) const {
  ABFT_REQUIRE(n >= 1, "hierarchy bounds need n >= 1");
  ABFT_REQUIRE(0 <= f && f < n, "hierarchy bounds need 0 <= f < n");
  HierarchyBounds b;
  b.n = n;
  b.shards = std::min(config_.shards, n);
  b.shard_rows_min = n / b.shards;
  b.shard_rows_max = n / b.shards + (n % b.shards != 0 ? 1 : 0);
  const auto unusable = [&b]() {
    b.f_leaf = b.f_root = b.tolerated_f = -1;
    b.resilience_margin = 0.0;
    return b;
  };
  if (b.shards <= 1) {
    // Flat delegation: one level, the leaf rule's own precondition governs.
    // An explicit f_leaf pins the executed budget here exactly as in the
    // tree case — aggregate_into runs the leaf with b.f_leaf, never raw f.
    const int cap = leaf_->max_usable_f(n);
    if (cap < leaf_->min_usable_f()) return unusable();
    const int requested = config_.f_leaf >= 0 ? config_.f_leaf : f;
    b.f_leaf = std::clamp(requested, leaf_->min_usable_f(), cap);
    b.f_root = 0;
    b.tolerated_f = b.f_leaf;
  } else {
    // max_usable_f is non-decreasing in n for every registry rule, so the
    // smallest shard is the binding one.
    const int leaf_cap = leaf_->max_usable_f(b.shard_rows_min);
    if (leaf_cap < leaf_->min_usable_f()) return unusable();
    const int requested = config_.f_leaf >= 0 ? config_.f_leaf : f;
    b.f_leaf = std::clamp(requested, leaf_->min_usable_f(), leaf_cap);
    const int root_cap = root_->max_usable_f(b.shards);
    if (root_cap < root_->min_usable_f()) return unusable();
    // floor(f / (f_leaf+1)) shards can be fully corrupted by f total faults;
    // that is the budget the root must absorb.
    b.f_root = std::clamp(f / (b.f_leaf + 1), root_->min_usable_f(), root_cap);
    b.tolerated_f = std::min(n - 1, (b.f_leaf + 1) * (b.f_root + 1) - 1);
  }
  b.resilience_margin = 2.0 * static_cast<double>(b.tolerated_f) / static_cast<double>(n);
  return b;
}

int HierarchicalAggregator::max_usable_f(int n) const noexcept {
  if (n < 1) return -1;
  const int num_shards = std::min(config_.shards, n);
  if (num_shards <= 1) {
    const int cap = leaf_->max_usable_f(n);
    if (cap < leaf_->min_usable_f()) return -1;
    return config_.f_leaf >= 0 ? std::clamp(config_.f_leaf, leaf_->min_usable_f(), cap) : cap;
  }
  const int rows_min = n / num_shards;
  const int leaf_cap = leaf_->max_usable_f(rows_min);
  if (leaf_cap < leaf_->min_usable_f()) return -1;
  // Explicit f_leaf pins the per-shard budget (clamped into the leaf's
  // usable range); auto mode can raise it as far as the leaf cap.
  const int leaf_budget =
      config_.f_leaf >= 0 ? std::clamp(config_.f_leaf, leaf_->min_usable_f(), leaf_cap)
                          : leaf_cap;
  const int root_cap = root_->max_usable_f(num_shards);
  if (root_cap < root_->min_usable_f()) return -1;
  return std::min(n - 1, (leaf_budget + 1) * (root_cap + 1) - 1);
}

int HierarchicalAggregator::min_usable_f() const noexcept {
  // Any declared f >= 0 is absorbable at every shard count: bounds() clamps
  // the executed per-level budgets UP to the leaf/root rules' own floors, so
  // a leaf with a positive minimum (bulyan) still runs with f_leaf at its
  // floor.  The S = 1 flat delegation follows the same contract — it executes
  // the clamped b.f_leaf, never raw f — so it no longer inherits the leaf's
  // floor.  Keeping this at 0 also keeps the cap consistent with
  // aggregate_into's delegation decision when a thin round shrinks the
  // delivered row count to 1 (num_shards = min(shards, n)).
  return 0;
}

void HierarchicalAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                            AggregatorWorkspace& ws) const {
  validate_batch(batch, f);
  aggregate_ids(out, batch, {}, f, ws);
}

void HierarchicalAggregator::aggregate_rows(Vector& out, const GradientBatch& batch,
                                            std::span<const int> rows, int f,
                                            AggregatorWorkspace& ws) const {
  // bounds() checks 0 <= f < n; an empty id list would mean the whole batch.
  ABFT_REQUIRE(!rows.empty(), "aggregation needs at least one gradient");
  aggregate_ids(out, batch, rows, f, ws);
}

void HierarchicalAggregator::aggregate_ids(Vector& out, const GradientBatch& batch,
                                           std::span<const int> rows, int f,
                                           AggregatorWorkspace& ws) const {
  const int n = rows.empty() ? batch.rows() : static_cast<int>(rows.size());
  const int num_shards = std::min(config_.shards, n);
  if (num_shards <= 1) {
    // Execute exactly the budget bounds() reports: clamped into the leaf's
    // usable range and pinned by an explicit f_leaf.  Raw f would desync the
    // executed filter from the reported bounds (and a leaf with a positive
    // floor, e.g. bulyan, would throw mid-run on an engine-approved f = 0).
    const HierarchyBounds flat = bounds(n, f);
    ABFT_REQUIRE(flat.tolerated_f >= 0,
                 "hierarchy: the leaf rule cannot run on this row count at all");
    ABFT_REQUIRE(f <= flat.tolerated_f,
                 "hierarchy: declared f exceeds the flat-delegation budget — lower f or drop "
                 "the explicit f_leaf");
    if (rows.empty()) {
      leaf_->aggregate_into(out, batch, flat.f_leaf, ws);
    } else {
      leaf_->aggregate_rows(out, batch, rows, flat.f_leaf, ws);
    }
    return;
  }
  const HierarchyBounds b = bounds(n, f);
  ABFT_REQUIRE(b.tolerated_f >= 0,
               "hierarchy: the leaf/root rules cannot run on this shape — fewer shards or a "
               "different rule");
  ABFT_REQUIRE(f <= b.tolerated_f,
               "hierarchy: declared f exceeds the tree's tolerated bound "
               "(f_leaf+1)(f_root+1)-1 — lower f or raise f_leaf/shards");

  // Seeded deterministic shard assignment.  It depends only on (n, seed),
  // so the workspace keeps the last one and redraws it only when the row
  // count (elimination, churn, stragglers) or the seed changes.
  if (ws.hier_perm_rows != n || ws.hier_perm_seed != config_.assignment_seed) {
    ws.hier_perm.resize(static_cast<std::size_t>(n));
    std::iota(ws.hier_perm.begin(), ws.hier_perm.end(), 0);
    if (config_.assignment_seed != 0) {
      util::Rng rng(config_.assignment_seed);
      for (int i = n - 1; i > 0; --i) {
        const int j = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(i) + 1));
        std::swap(ws.hier_perm[static_cast<std::size_t>(i)],
                  ws.hier_perm[static_cast<std::size_t>(j)]);
      }
    }
    ws.hier_perm_rows = n;
    ws.hier_perm_seed = config_.assignment_seed;
  }
  // Named rows: position k of the assignment is row rows[perm[k]].
  std::span<const int> ids = ws.hier_perm;
  if (!rows.empty()) {
    ws.hier_ids.resize(static_cast<std::size_t>(n));
    for (std::size_t k = 0; k < ws.hier_ids.size(); ++k) {
      ws.hier_ids[k] = rows[static_cast<std::size_t>(ws.hier_perm[k])];
    }
    ids = ws.hier_ids;
  }

  // Shard s holds rows [shard_begin(n, S, s), shard_begin(n, S, s + 1)) of
  // the assignment permutation, and every shard runs with b.f_leaf:
  // bounds() clamps it into the smallest shard's range, and max_usable_f
  // never falls as rows grow, so every shard supports it.
  ABFT_ENSURE(leaf_->min_usable_f() <= b.f_leaf &&
                  b.f_leaf <= leaf_->max_usable_f(b.shard_rows_min),
              "hierarchy: the smallest shard cannot run the leaf budget");
  leaf_->aggregate_shards(ws.hier_root, batch, ids, num_shards, b.f_leaf, ws);
  // The root draws scratch from the caller's workspace; kernels never touch
  // the hier_* members, so ws.hier_root is stable input for the duration.
  root_->aggregate_into(out, ws.hier_root, b.f_root, ws);
}

}  // namespace abft::agg
