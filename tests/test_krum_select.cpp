// Oracle tests for the certified Krum scorer (krum.hpp detail::krum_select).
//
// The batched Krum, Multi-Krum and exact Bulyan stage-1 paths used to score
// every row by nth_element + std::accumulate over its gathered distances.
// krum_select scores rows canonically (rank counts + masked sum) and
// recomputes that old score only for rows whose order the rounding could
// change.  Its contract is that every selection stays bit-identical, so the
// oracle here is a test-local copy of the old scorer run over the library's
// own packed pairdist, and every comparison is bitwise: the selected row,
// the Multi-Krum order, and the aggregate output.
//
// Bulyan is compared in exact mode only: its fast-mode stage 1 is the
// incremental scorer, which krum_select does not touch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "abft/agg/bulyan.hpp"
#include "abft/agg/cwtm.hpp"
#include "abft/agg/hierarchy.hpp"
#include "abft/agg/krum.hpp"
#include "abft/agg/rank_kernel.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using agg::AggMode;
using agg::AggregatorWorkspace;
using agg::GradientBatch;
using agg::Precision;
using agg::Vector;

struct Lane {
  AggMode mode;
  Precision precision;
  const char* name;
};

constexpr Lane kLanes[] = {
    {AggMode::exact, Precision::f64, "exact"},
    {AggMode::fast, Precision::f64, "fast/f64"},
    {AggMode::fast, Precision::f32, "fast/f32"},
};

void configure(AggregatorWorkspace& ws, const Lane& lane) {
  ws.mode = lane.mode;
  ws.precision = lane.precision;
}

// --- the old scorer --------------------------------------------------------

/// Row i's distances to the other (active) rows in ascending-j order, then
/// nth_element + accumulate: the score every batched path computed before.
double old_score(const AggregatorWorkspace& ws, int i, int n, int neighbors,
                 const std::vector<unsigned char>* active) {
  std::vector<double> row(static_cast<std::size_t>(n));
  ws.gather_pair_row(i, n, row.data());
  std::vector<double> dists;
  for (int j = 0; j < n; ++j) {
    if (j != i && (active == nullptr || (*active)[static_cast<std::size_t>(j)] != 0)) {
      dists.push_back(row[static_cast<std::size_t>(j)]);
    }
  }
  std::nth_element(dists.begin(), dists.begin() + (neighbors - 1), dists.end());
  return std::accumulate(dists.begin(), dists.begin() + neighbors, 0.0);
}

std::vector<double> old_scores(const AggregatorWorkspace& ws, int n, int neighbors) {
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    scores[static_cast<std::size_t>(i)] = old_score(ws, i, n, neighbors, nullptr);
  }
  return scores;
}

int old_argmin(const std::vector<double>& scores) {
  return static_cast<int>(std::min_element(scores.begin(), scores.end()) - scores.begin());
}

std::vector<int> stable_order(const std::vector<double>& scores) {
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&scores](int a, int b) {
    return scores[static_cast<std::size_t>(a)] < scores[static_cast<std::size_t>(b)];
  });
  return order;
}

Vector old_krum(const GradientBatch& batch, int f, const Lane& lane) {
  AggregatorWorkspace ws;
  configure(ws, lane);
  ws.fill_pairwise_sqdist(batch);
  const int n = batch.rows();
  return batch.unpack_row(old_argmin(old_scores(ws, n, n - f - 2)));
}

Vector old_multikrum(const GradientBatch& batch, int f, const Lane& lane) {
  AggregatorWorkspace ws;
  configure(ws, lane);
  ws.fill_pairwise_sqdist(batch);
  const int n = batch.rows();
  const int d = batch.cols();
  const int m = n - f;
  const auto order = stable_order(old_scores(ws, n, n - f - 2));
  std::vector<double> acc(static_cast<std::size_t>(d), 0.0);
  for (int s = 0; s < m; ++s) {
    const auto row = batch.row(order[static_cast<std::size_t>(s)]);
    for (int k = 0; k < d; ++k) {
      acc[static_cast<std::size_t>(k)] += row[static_cast<std::size_t>(k)];
    }
  }
  const double inv = 1.0 / static_cast<double>(m);
  for (auto& v : acc) v *= inv;
  return Vector(std::move(acc));
}

/// The old exact Bulyan: iterated old-score argmin over the active rows,
/// then the exact stage 2 (sort, median, sort by distance to it).
Vector old_bulyan_exact(const GradientBatch& batch, int f) {
  AggregatorWorkspace ws;
  ws.fill_pairwise_sqdist(batch);
  const int n = batch.rows();
  const int d = batch.cols();
  const int theta = n - 2 * f;
  const int take = std::min(theta - 2 * f, theta);
  std::vector<unsigned char> active(static_cast<std::size_t>(n), 1);
  std::vector<int> picks;
  int pool = n;
  for (int round = 0; round < theta; ++round) {
    const int neighbors = std::max(1, pool - f - 2);
    int best = -1;
    double best_score = 0.0;
    for (int i = 0; i < n; ++i) {
      if (active[static_cast<std::size_t>(i)] == 0) continue;
      const double score = old_score(ws, i, n, neighbors, &active);
      if (best < 0 || score < best_score) {
        best = i;
        best_score = score;
      }
    }
    picks.push_back(best);
    active[static_cast<std::size_t>(best)] = 0;
    --pool;
  }
  std::vector<double> out(static_cast<std::size_t>(d));
  std::vector<double> column(static_cast<std::size_t>(theta));
  for (int k = 0; k < d; ++k) {
    for (int s = 0; s < theta; ++s) {
      column[static_cast<std::size_t>(s)] =
          batch.row(picks[static_cast<std::size_t>(s)])[static_cast<std::size_t>(k)];
    }
    std::sort(column.begin(), column.end());
    const double med = (theta % 2 == 1) ? column[static_cast<std::size_t>(theta / 2)]
                                        : 0.5 * (column[static_cast<std::size_t>(theta / 2 - 1)] +
                                                 column[static_cast<std::size_t>(theta / 2)]);
    std::sort(column.begin(), column.end(),
              [med](double a, double b) { return std::abs(a - med) < std::abs(b - med); });
    double sum = 0.0;
    for (int s = 0; s < take; ++s) sum += column[static_cast<std::size_t>(s)];
    out[static_cast<std::size_t>(k)] = sum / static_cast<double>(take);
  }
  return Vector(std::move(out));
}

// --- comparisons -----------------------------------------------------------

bool bitwise_equal(const Vector& a, const Vector& b) {
  const auto ca = a.coefficients();
  const auto cb = b.coefficients();
  return ca.size() == cb.size() &&
         std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(double)) == 0;
}

template <typename Rule>
Vector run_rule(const Rule& rule, const GradientBatch& batch, int f, const Lane& lane) {
  AggregatorWorkspace ws;
  configure(ws, lane);
  Vector out;
  rule.aggregate_into(out, batch, f, ws);
  return out;
}

/// krum_select against the old scorer on one filled workspace, for every
/// f in `fs`: the argmin it returns and the stable_sort order of its
/// scores.
void expect_selections_match(AggregatorWorkspace& ws, int n, const std::vector<int>& fs,
                             const std::string& where) {
  for (const int f : fs) {
    const int neighbors = n - f - 2;
    const auto old = old_scores(ws, n, neighbors);
    const int old_best = old_argmin(old);
    const auto old_order = stable_order(old);
    EXPECT_EQ(agg::detail::krum_select(ws, n, neighbors, nullptr), old_best)
        << where << " f=" << f;
    EXPECT_EQ(stable_order(ws.scores), old_order) << where << " f=" << f;
  }
}

void expect_outputs_match(const GradientBatch& batch, const std::vector<int>& fs,
                          const Lane& lane, const std::string& where) {
  const agg::KrumAggregator krum;
  const agg::MultiKrumAggregator multikrum;
  for (const int f : fs) {
    EXPECT_TRUE(bitwise_equal(run_rule(krum, batch, f, lane), old_krum(batch, f, lane)))
        << where << " krum f=" << f;
    EXPECT_TRUE(bitwise_equal(run_rule(multikrum, batch, f, lane), old_multikrum(batch, f, lane)))
        << where << " multikrum f=" << f;
  }
}

/// Every usable Krum f at n, or (for the rows past the rank-select cutoff,
/// where both routes run the same nth_element code) a spread of them.
std::vector<int> krum_fs(int n, bool every) {
  const int max_f = (n - 3) / 2;
  std::vector<int> fs;
  if (every) {
    for (int f = 0; f <= max_f; ++f) fs.push_back(f);
  } else {
    for (const int f : {0, 1, max_f / 3, max_f / 2, max_f - 1, max_f}) {
      if (f >= 0 && (fs.empty() || fs.back() < f)) fs.push_back(f);
    }
  }
  return fs;
}

// --- batches ---------------------------------------------------------------

GradientBatch random_batch(int n, int d, std::uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < d; ++k) batch.row(i)[static_cast<std::size_t>(k)] = scale * rng.normal();
  }
  return batch;
}

/// Copies row `from` over every row in [first, last): the mimic attack.
void duplicate_rows(GradientBatch& batch, int from, int first, int last) {
  const auto src = batch.row(from);
  for (int i = first; i < last; ++i) {
    batch.set_row(i, std::span<const double>(src.data(), src.size()));
  }
}

/// The batches every size runs through: generic, mimicked, degenerate and
/// huge (1e150 keeps the canonical route; 1e154 overflows the distances to
/// +inf and takes the old route for the whole call).
std::vector<std::pair<std::string, GradientBatch>> batch_family(int n, int d, std::uint64_t seed) {
  std::vector<std::pair<std::string, GradientBatch>> family;
  family.emplace_back("random", random_batch(n, d, seed));
  auto mimic = random_batch(n, d, seed + 1);
  duplicate_rows(mimic, 0, 1, std::max(1, n / 3));
  family.emplace_back("mimic", std::move(mimic));
  auto equal = random_batch(n, d, seed + 2);
  duplicate_rows(equal, 0, 1, n);
  family.emplace_back("all-equal", std::move(equal));
  auto zeros = random_batch(n, d, seed + 3);
  for (int i = 0; i < n / 2; ++i) {
    for (auto& v : zeros.row(i)) v = 0.0;
  }
  family.emplace_back("zero-rows", std::move(zeros));
  family.emplace_back("scale-1e150", random_batch(n, d, seed + 4, 1e150));
  family.emplace_back("scale-1e154", random_batch(n, d, seed + 5, 1e154));
  return family;
}

std::vector<int> test_sizes() {
  constexpr int cut = agg::detail::kKrumRankSelectMaxRow;
  std::vector<int> sizes;
  for (int n = 3; n <= 13; ++n) sizes.push_back(n);
  for (const int n : {25, 26, 50, cut, cut + 1, cut + 2, 513, 600}) sizes.push_back(n);
  std::sort(sizes.begin(), sizes.end());
  sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
  return sizes;
}

// --- tests -----------------------------------------------------------------

TEST(KrumSelect, SelectionsMatchTheOldScorerOnEveryBatchAndLane) {
  for (const int n : test_sizes()) {
    // Rows past the cutoff take the old route row for row; a spread of f
    // and one generic batch cover them without the full quadratic sweep.
    const bool past_cutoff = n > agg::detail::kKrumRankSelectMaxRow + 2;
    const auto fs = krum_fs(n, !past_cutoff);
    const int d = n < 30 ? 3 : 17;
    for (const auto& lane : kLanes) {
      auto family = batch_family(n, d, 1000 + static_cast<std::uint64_t>(n));
      if (past_cutoff) family.resize(1);
      for (const auto& [label, batch] : family) {
        AggregatorWorkspace ws;
        configure(ws, lane);
        ws.fill_pairwise_sqdist(batch);
        expect_selections_match(ws, n, fs,
                                std::string(lane.name) + " " + label + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(KrumSelect, KrumAndMultiKrumOutputsMatchTheOldScorer) {
  // The selections are swept above; this checks the wiring from
  // aggregate_into to them, over every f at small n and a spread beyond.
  for (const int n : test_sizes()) {
    const auto fs = krum_fs(n, n <= 26);
    for (const auto& lane : kLanes) {
      auto family = batch_family(n, 5, 2000 + static_cast<std::uint64_t>(n));
      if (n > agg::detail::kKrumRankSelectMaxRow + 2) family.resize(1);
      for (const auto& [label, batch] : family) {
        expect_outputs_match(batch, fs, lane,
                             std::string(lane.name) + " " + label + " n=" + std::to_string(n));
      }
    }
  }
}

TEST(KrumSelect, AllOnesMaskMatchesNoMask) {
  // An active mask that keeps every row builds the same candidate lists as
  // no mask, so the scores and the selection agree bit for bit.
  for (const int n : {3, 9, 25, 97, 98}) {
    const int d = 8;
    const std::vector<unsigned char> all(static_cast<std::size_t>(n), 1);
    for (const auto& lane : kLanes) {
      for (const auto& [label, batch] : batch_family(n, d, 5000 + static_cast<std::uint64_t>(n))) {
        AggregatorWorkspace ws;
        configure(ws, lane);
        ws.fill_pairwise_sqdist(batch);
        for (const int f : krum_fs(n, false)) {
          const std::string where =
              std::string(lane.name) + " " + label + " n=" + std::to_string(n) + " f=" +
              std::to_string(f);
          const int unmasked = agg::detail::krum_select(ws, n, n - f - 2, nullptr);
          const auto scores = ws.scores;
          EXPECT_EQ(agg::detail::krum_select(ws, n, n - f - 2, all.data()), unmasked) << where;
          EXPECT_EQ(std::memcmp(ws.scores.data(), scores.data(), scores.size() * sizeof(double)),
                    0)
              << where;
        }
      }
    }
  }
}

TEST(KrumSelect, OnlyOverflowingRowsTakeTheWholeCallFallback) {
  // At 1e150 the squared distances stay finite and the canonical route
  // runs; at 1e154 they overflow, so every row keeps its old (infinite)
  // score.  Selections match the old scorer on both routes.
  constexpr int n = 25;
  constexpr int f = 4;
  for (const double scale : {1e150, 1e154}) {
    const auto batch = random_batch(n, 3, 77, scale);
    AggregatorWorkspace ws;
    ws.fill_pairwise_sqdist(batch);
    expect_selections_match(ws, n, {f}, "scale " + std::to_string(scale));
    const bool all_finite = std::all_of(ws.scores.begin(), ws.scores.end(),
                                        [](double s) { return std::isfinite(s); });
    EXPECT_EQ(all_finite, scale < 1e152) << scale;
  }
}

TEST(KrumSelect, WholeCallFallbackScoresEveryRowTheOldWay) {
  // Mimicked rows tie at the k-th distance, so they take the old score
  // while the canonical pass runs; one row at 1e154 then overflows its
  // distances and sends the whole call to the old route.  Every row's
  // score must then be the old scorer's, bit for bit: the tied rows'
  // recompute must partition their distances in ascending-j order again,
  // not the order their first partition left.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (const int n : {13, 25}) {
      auto batch = random_batch(n, 8, 9000 + seed);
      duplicate_rows(batch, 0, 1, n / 3);
      for (auto& v : batch.row(n - 1)) v *= 1e154;
      for (const auto& lane : kLanes) {
        AggregatorWorkspace ws;
        configure(ws, lane);
        ws.fill_pairwise_sqdist(batch);
        for (const int f : krum_fs(n, true)) {
          const int neighbors = n - f - 2;
          const auto old = old_scores(ws, n, neighbors);
          EXPECT_EQ(agg::detail::krum_select(ws, n, neighbors, nullptr), old_argmin(old));
          EXPECT_EQ(std::memcmp(ws.scores.data(), old.data(), old.size() * sizeof(double)), 0)
              << lane.name << " seed=" << seed << " n=" << n << " f=" << f;
        }
      }
    }
  }
}

TEST(KrumSelect, NanRowKeepsTheOldBehaviour) {
  for (const int n : {7, 25}) {
    auto batch = random_batch(n, 4, 31);
    batch.row(2)[1] = std::numeric_limits<double>::quiet_NaN();
    for (const auto& lane : kLanes) {
      expect_outputs_match(batch, krum_fs(n, true), lane, std::string(lane.name) + " nan");
    }
  }
}

TEST(KrumSelect, ExactBulyanMatchesTheOldStageOne) {
  const agg::BulyanAggregator bulyan;
  const Lane& exact = kLanes[0];
  for (const int n : test_sizes()) {
    if (n < 7) continue;
    const int max_f = (n - 3) / 4;
    std::vector<int> fs;
    if (n <= 26) {
      for (int f = 1; f <= max_f; ++f) fs.push_back(f);
    } else if (n <= agg::detail::kKrumRankSelectMaxRow + 2) {
      // At the cutoff sizes the pool shrinks across the cutoff mid-call.
      fs = {1, max_f};
    }
    for (const auto& [label, batch] : batch_family(n, 3, 3000 + static_cast<std::uint64_t>(n))) {
      for (const int f : fs) {
        EXPECT_TRUE(bitwise_equal(run_rule(bulyan, batch, f, exact), old_bulyan_exact(batch, f)))
            << label << " n=" << n << " f=" << f;
      }
    }
  }
}

/// The committed near-tie fixture: rows 0 and 1 are x and -x, and rows
/// 2..13 and 14..25 hold y_j and -y_j, so rows 0 and 1 see bitwise the same
/// multiset of distances in a different order and share the lowest true
/// score.  The seed comes from a search over seeds 1..5000 for batches
/// whose canonical and old score vectors pick different rows; seed 13 does
/// in -march=native (AVX-512), -march=haswell (AVX2 + FMA) and portable
/// builds.
constexpr int kTieRows = 26;
constexpr int kTieF = 5;
constexpr std::uint64_t kTieSeed = 13;

GradientBatch near_tie_batch(std::uint64_t seed) {
  constexpr int d = 3;
  constexpr int half = (kTieRows - 2) / 2;
  util::Rng rng(seed);
  GradientBatch batch(kTieRows, d);
  for (int k = 0; k < d; ++k) {
    const double x = 0.1 * rng.normal();
    batch.row(0)[static_cast<std::size_t>(k)] = x;
    batch.row(1)[static_cast<std::size_t>(k)] = -x;
  }
  for (int j = 0; j < half; ++j) {
    for (int k = 0; k < d; ++k) {
      const double y = rng.normal();
      batch.row(2 + j)[static_cast<std::size_t>(k)] = y;
      batch.row(2 + half + j)[static_cast<std::size_t>(k)] = -y;
    }
  }
  return batch;
}

/// Canonical scores (smallest_k_sum, as krum_select computes them before
/// any recompute).
std::vector<double> canonical_scores(const AggregatorWorkspace& ws, int n, int neighbors) {
  std::vector<double> scores(static_cast<std::size_t>(n));
  std::vector<double> row(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ws.gather_pair_row(i, n, row.data());
    row.erase(row.begin() + i);
    int kept = 0;
    scores[static_cast<std::size_t>(i)] =
        agg::detail::smallest_k_sum(row.data(), n - 1, neighbors, &kept);
    row.resize(static_cast<std::size_t>(n));
  }
  return scores;
}

TEST(KrumSelect, NearTieFixturePicksTheOldRowWhereCanonicalScoresDisagree) {
  const auto batch = near_tie_batch(kTieSeed);
  const int neighbors = kTieRows - kTieF - 2;
  AggregatorWorkspace ws;
  ws.fill_pairwise_sqdist(batch);
  const auto old = old_scores(ws, kTieRows, neighbors);
  const auto canonical = canonical_scores(ws, kTieRows, neighbors);
  // The fixture is only a fixture while the two vectors pick different
  // rows: then a scorer that skipped the recompute would pick the wrong one.
  ASSERT_NE(old_argmin(canonical), old_argmin(old))
      << "canonical " << canonical[0] << " " << canonical[1] << ", old " << old[0] << " "
      << old[1];
  ASSERT_NE(stable_order(canonical), stable_order(old));
  expect_selections_match(ws, kTieRows, {kTieF}, "near-tie");
  expect_outputs_match(batch, {kTieF}, kLanes[0], "near-tie");
}

/// A many-like tree: Krum leaves, CWTM root.  The library's hierarchy must
/// equal a test-local composition of the old per-shard Krum and
/// CwtmAggregator, at one thread and four.
Vector old_hierarchy(const GradientBatch& batch, int f, std::uint64_t assignment_seed,
                     const agg::HierarchicalAggregator& hier) {
  const int n = batch.rows();
  const int d = batch.cols();
  const int shards = hier.config().shards;
  const auto bounds = hier.bounds(n, f);
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  if (assignment_seed != 0) {
    util::Rng rng(assignment_seed);
    for (int i = n - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(i) + 1));
      std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
    }
  }
  const agg::KrumAggregator leaf;
  GradientBatch root(shards, d);
  for (int s = 0; s < shards; ++s) {
    const int begin = static_cast<int>(static_cast<long long>(n) * s / shards);
    const int end = static_cast<int>(static_cast<long long>(n) * (s + 1) / shards);
    GradientBatch shard(end - begin, d);
    for (int r = begin; r < end; ++r) {
      const auto src = batch.row(perm[static_cast<std::size_t>(r)]);
      shard.set_row(r - begin, std::span<const double>(src.data(), src.size()));
    }
    const int shard_f =
        std::max(std::min(bounds.f_leaf, leaf.max_usable_f(end - begin)), leaf.min_usable_f());
    const auto out = old_krum(shard, shard_f, kLanes[0]);
    root.set_row(s, out);
  }
  AggregatorWorkspace ws;
  Vector out;
  agg::CwtmAggregator().aggregate_into(out, root, bounds.f_root, ws);
  return out;
}

TEST(KrumSelect, ManyLikeHierarchyMatchesTheOldComposition) {
  // 80 shards of 25 rows (many's leaf), and 40 shards of 16, 17, 32 and 33
  // rows: both ends of the network sizes of the shard-lane route.
  agg::ThreadPool pool(4);
  for (const auto& [shards, rows] :
       {std::pair{80, 25}, std::pair{40, 16}, std::pair{40, 17}, std::pair{40, 32},
        std::pair{40, 33}}) {
    const int n = shards * rows;
    const int f = n / 100;
    // many's 25-row case keeps its original data (seed 4242).
    const auto batch =
        random_batch(n, 8, rows == 25 ? 4242 : 4242 + static_cast<std::uint64_t>(rows));
    for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{77}}) {
      const agg::HierarchicalAggregator hier({shards, "krum", "cwtm", -1, seed});
      const auto expected = old_hierarchy(batch, f, seed, hier);
      for (const int threads : {1, 4}) {
        AggregatorWorkspace ws;
        ws.parallel_threads = threads;
        ws.pool = &pool;
        Vector out;
        hier.aggregate_into(out, batch, f, ws);
        EXPECT_TRUE(bitwise_equal(out, expected))
            << rows << "-row shards, seed " << seed << " threads " << threads;
      }
    }
  }
}

}  // namespace
