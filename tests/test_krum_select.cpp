// Reference tests for the batched Krum scorer (krum.hpp detail::krum_select).
//
// Krum's score has one definition (rank_kernel.hpp): the sum of a row's k
// smallest candidate distances, ties at the k-th broken toward the lower
// index, a NaN candidate counted as +inf, added into lane j mod 8 in
// ascending j and reduced with a fixed tree.  The oracle here is a scalar
// copy of that definition (krum_reference.hpp) run over the library's own
// packed pairdist, and every comparison is bitwise: each row's score, the
// selected row, the Multi-Krum order and the aggregate output, in all
// three lanes and on both sides of kKrumRankSelectMaxRow.  A second check
// ties the definition to the exact sums: wherever two reference scores
// differ by more than the rounding band, they order as the sorted
// long-double sums do.
//
// Bulyan is compared in exact mode only: its fast-mode stage 1 is the
// incremental scorer, which krum_select does not run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
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
#include "abft/agg/threads.hpp"
#include "abft/linalg/vector.hpp"
#include "abft/util/rng.hpp"
#include "krum_reference.hpp"

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

// --- the reference ---------------------------------------------------------

/// Row i's candidates: its distances to the other (active) rows in
/// ascending j, from the filled workspace.
std::vector<double> candidates(const AggregatorWorkspace& ws, int i, int n,
                               const std::vector<unsigned char>* active) {
  std::vector<double> row(static_cast<std::size_t>(n));
  ws.gather_pair_row(i, n, row.data());
  std::vector<double> cand;
  for (int j = 0; j < n; ++j) {
    if (j != i && (active == nullptr || (*active)[static_cast<std::size_t>(j)] != 0)) {
      cand.push_back(row[static_cast<std::size_t>(j)]);
    }
  }
  return cand;
}

std::vector<double> reference_scores(const AggregatorWorkspace& ws, int n, int neighbors) {
  std::vector<double> scores(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    scores[static_cast<std::size_t>(i)] =
        krum_reference::score(candidates(ws, i, n, nullptr), neighbors);
  }
  return scores;
}

int first_lowest(const std::vector<double>& scores) {
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

Vector reference_krum(const GradientBatch& batch, int f, const Lane& lane) {
  AggregatorWorkspace ws;
  configure(ws, lane);
  ws.fill_pairwise_sqdist(batch);
  const int n = batch.rows();
  return batch.unpack_row(first_lowest(reference_scores(ws, n, n - f - 2)));
}

Vector reference_multikrum(const GradientBatch& batch, int f, const Lane& lane) {
  AggregatorWorkspace ws;
  configure(ws, lane);
  ws.fill_pairwise_sqdist(batch);
  const int n = batch.rows();
  const int d = batch.cols();
  const int m = n - f;
  const auto order = stable_order(reference_scores(ws, n, n - f - 2));
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

/// Exact Bulyan from the reference: iterated first-lowest reference score
/// over the active rows, then the exact stage 2 (sort, median, sort by
/// distance to it).
Vector reference_bulyan_exact(const GradientBatch& batch, int f) {
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
      const double score = krum_reference::score(candidates(ws, i, n, &active), neighbors);
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

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// krum_select against the reference on one filled workspace, for every f
/// in `fs`: every score bit for bit (none of them NaN) and the row it
/// returns.
void expect_scores_match(AggregatorWorkspace& ws, int n, const std::vector<int>& fs,
                         const std::string& where) {
  for (const int f : fs) {
    const int neighbors = n - f - 2;
    const auto expected = reference_scores(ws, n, neighbors);
    EXPECT_EQ(agg::detail::krum_select(ws, n, neighbors, nullptr), first_lowest(expected))
        << where << " f=" << f;
    EXPECT_TRUE(same_bytes(ws.scores, expected)) << where << " f=" << f;
    EXPECT_TRUE(std::none_of(ws.scores.begin(), ws.scores.end(),
                             [](double s) { return std::isnan(s); }))
        << where << " f=" << f;
  }
}

void expect_outputs_match(const GradientBatch& batch, const std::vector<int>& fs,
                          const Lane& lane, const std::string& where) {
  const agg::KrumAggregator krum;
  const agg::MultiKrumAggregator multikrum;
  for (const int f : fs) {
    EXPECT_TRUE(bitwise_equal(run_rule(krum, batch, f, lane), reference_krum(batch, f, lane)))
        << where << " krum f=" << f;
    EXPECT_TRUE(
        bitwise_equal(run_rule(multikrum, batch, f, lane), reference_multikrum(batch, f, lane)))
        << where << " multikrum f=" << f;
  }
}

/// Every usable Krum f at n, or (for the large sizes, where a full sweep is
/// slow) a spread of them.
std::vector<int> krum_fs(int n, bool every) {
  const int max_f = (n - 3) / 2;
  std::vector<int> fs;
  if (every) {
    for (int f = 0; f <= max_f; ++f) fs.push_back(f);
  } else {
    for (const int f : {0, 1, max_f / 3, max_f / 2, max_f - 1, max_f}) {
      if (f >= 0 && f <= max_f && (fs.empty() || fs.back() < f)) fs.push_back(f);
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

/// The batches every size runs through: generic, mimicked, degenerate,
/// huge (at 1e150 the distances stay finite; at 1e154 they overflow to
/// +inf, and mimicked rows next to one row at 1e200 mix tied, finite and
/// infinite scores) and non-finite: two rows at +inf in one coordinate
/// (the guard's direct difference inf - inf gives their distance NaN, which
/// Krum counts as +inf) and a NaN coordinate (all of that row's distances
/// are NaN).
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
  auto mimic_huge = random_batch(n, d, seed + 8);
  duplicate_rows(mimic_huge, 0, 1, std::max(1, n / 3));
  for (auto& v : mimic_huge.row(n - 1)) v = 1e200;
  family.emplace_back("mimic-huge", std::move(mimic_huge));
  auto inf_pair = random_batch(n, d, seed + 6);
  inf_pair.row(0)[0] = std::numeric_limits<double>::infinity();
  inf_pair.row(n - 1)[0] = std::numeric_limits<double>::infinity();
  family.emplace_back("inf-pair", std::move(inf_pair));
  auto nan = random_batch(n, d, seed + 7);
  nan.row(n / 2)[d - 1] = std::numeric_limits<double>::quiet_NaN();
  family.emplace_back("nan-row", std::move(nan));
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

TEST(KrumSelect, ScoresMatchTheReferenceOnEveryBatchAndLane) {
  for (const int n : test_sizes()) {
    // Past the cutoff a spread of f covers the long-row route without the
    // full quadratic sweep.
    const bool past_cutoff = n > agg::detail::kKrumRankSelectMaxRow + 2;
    const auto fs = krum_fs(n, !past_cutoff);
    const int d = n < 30 ? 3 : 17;
    for (const auto& lane : kLanes) {
      for (const auto& [label, batch] : batch_family(n, d, 1000 + static_cast<std::uint64_t>(n))) {
        AggregatorWorkspace ws;
        configure(ws, lane);
        ws.fill_pairwise_sqdist(batch);
        const std::string where = std::string(lane.name) + " " + label + " n=" + std::to_string(n);
        // The family really feeds the scorer a NaN and an overflow.
        if (label == "inf-pair") {
          ASSERT_TRUE(std::isnan(ws.pair_sqdist(0, n - 1, n))) << where;
        }
        expect_scores_match(ws, n, fs, where);
        if (label == "mimic-huge") {
          EXPECT_EQ(ws.scores[static_cast<std::size_t>(n - 1)],
                    std::numeric_limits<double>::infinity())
              << where;
        }
      }
    }
  }
}

TEST(KrumSelect, KrumAndMultiKrumOutputsMatchTheReference) {
  // The scores are swept above; this checks the wiring from aggregate_into
  // to them, over every f at small n and a spread beyond.
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
          EXPECT_TRUE(same_bytes(ws.scores, scores)) << where;
        }
      }
    }
  }
}

TEST(KrumSelect, ExactBulyanMatchesTheReferenceStageOne) {
  // Stage 1 against the reference's iterated first-lowest scan.
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
        EXPECT_TRUE(
            bitwise_equal(run_rule(bulyan, batch, f, exact), reference_bulyan_exact(batch, f)))
            << label << " n=" << n << " f=" << f;
      }
    }
  }
}

/// A near-tie batch: rows 0 and 1 are x and -x, and rows 2..13 and 14..25
/// hold y_j and -y_j, so rows 0 and 1 see bitwise the same multiset of
/// distances in a different order and share the lowest true score.  Seed 13
/// made the scores of rows 0 and 1 round in opposite orders under two
/// summation orders.
constexpr int kTieRows = 26;
constexpr int kTieF = 5;

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

/// Every pair of rows whose reference scores lie further apart than the
/// rounding band orders as their sorted long-double sums do, and so does
/// krum_select's pick against every such row.  Both double sums add the
/// same `neighbors` non-negative terms, each within a relative
/// (neighbors - 1) * DBL_EPSILON / 2 of the exact sum; the band is four
/// times that, so outside it the exact sums are ordered like the scores,
/// and the long-double sums (64-bit significands) round far less.  Returns
/// how many pairs lay apart.
int expect_order_follows_exact_sums(AggregatorWorkspace& ws, int n, int neighbors,
                                     const std::string& where) {
  const auto scores = reference_scores(ws, n, neighbors);
  std::vector<long double> exact(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto cand = candidates(ws, i, n, nullptr);
    for (auto& v : cand) v = std::isnan(v) ? std::numeric_limits<double>::infinity() : v;
    std::sort(cand.begin(), cand.end());
    long double sum = 0.0L;
    for (int s = 0; s < neighbors; ++s) sum += cand[static_cast<std::size_t>(s)];
    exact[static_cast<std::size_t>(i)] = sum;
  }
  const double gamma = 2.0 * static_cast<double>(neighbors) * DBL_EPSILON;
  const auto apart = [&](int a, int b) {
    const double sa = scores[static_cast<std::size_t>(a)];
    const double sb = scores[static_cast<std::size_t>(b)];
    return std::isfinite(sa) && std::isfinite(sb) && std::abs(sa - sb) > gamma * std::max(sa, sb);
  };
  int separated = 0;
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!apart(a, b)) continue;
      ++separated;
      EXPECT_EQ(scores[static_cast<std::size_t>(a)] < scores[static_cast<std::size_t>(b)],
                exact[static_cast<std::size_t>(a)] < exact[static_cast<std::size_t>(b)])
          << where << " rows " << a << ", " << b;
    }
  }
  const int best = agg::detail::krum_select(ws, n, neighbors, nullptr);
  for (int a = 0; a < n; ++a) {
    if (a != best && apart(a, best)) {
      EXPECT_LT(exact[static_cast<std::size_t>(best)], exact[static_cast<std::size_t>(a)])
          << where << " pick " << best << " vs row " << a;
    }
  }
  return separated;
}

TEST(KrumSelect, OrderFollowsLongDoubleSumsOutsideTheBand) {
  for (const auto& lane : kLanes) {
    int separated = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      AggregatorWorkspace ws;
      configure(ws, lane);
      ws.fill_pairwise_sqdist(near_tie_batch(seed));
      separated += expect_order_follows_exact_sums(ws, kTieRows, kTieRows - kTieF - 2,
                                      std::string(lane.name) + " near-tie seed=" +
                                          std::to_string(seed));
    }
    for (const int n : {7, 25, agg::detail::kKrumRankSelectMaxRow + 3}) {
      for (const auto& [label, batch] : batch_family(n, 5, 6000 + static_cast<std::uint64_t>(n))) {
        AggregatorWorkspace ws;
        configure(ws, lane);
        ws.fill_pairwise_sqdist(batch);
        for (const int f : krum_fs(n, false)) {
          separated += expect_order_follows_exact_sums(
              ws, n, n - f - 2,
              std::string(lane.name) + " " + label + " n=" + std::to_string(n) + " f=" +
                  std::to_string(f));
        }
      }
    }
    // Most pairs of the generic batches lie apart, so the check is not vacuous.
    EXPECT_GT(separated, 10000) << lane.name;
  }
}

bool all_finite(std::span<const double> v) {
  return std::all_of(v.begin(), v.end(), [](double x) { return std::isfinite(x); });
}

/// Sets one coordinate of each of `bad` rows to NaN: row (7 r + 3) mod n of
/// rows [first, first + n), r < bad.
void plant_nan_rows(GradientBatch& batch, int first, int n, int bad) {
  for (int r = 0; r < bad; ++r) {
    batch.row(first + (r * 7 + 3) % n)[static_cast<std::size_t>(r % batch.cols())] =
        std::numeric_limits<double>::quiet_NaN();
  }
}

/// True when `out` is, bit for bit, a row of `batch` without a NaN.
bool is_clean_row(const Vector& out, const GradientBatch& batch) {
  for (int i = 0; i < batch.rows(); ++i) {
    if (all_finite(batch.row(i)) && bitwise_equal(out, batch.unpack_row(i))) return true;
  }
  return false;
}

TEST(KrumSelect, NanRowsNeverCaptureTheKrumFamily) {
  // Up to f rows carry a NaN coordinate.  Their distances are NaN, counted
  // as +inf, so each such row scores +inf while every other row keeps
  // finite candidates enough for its k: in every lane, Krum returns a row
  // without a NaN, and Multi-Krum (m = n - f) and Bulyan stay finite.  At
  // d = 8 and 16 the f64 lanes fill the packed triangle with the small-d
  // kernel on AVX-512 hosts, at d = 3 with the per-pair one.
  const agg::KrumAggregator krum;
  const agg::MultiKrumAggregator multikrum;
  const agg::BulyanAggregator bulyan;
  for (const auto& lane : kLanes) {
    for (const int n : {7, 11, 25, agg::detail::kKrumRankSelectMaxRow + 4}) {
      for (const int d : {3, 8, 16}) {
        for (int f = 1; 2 * f + 2 < n; f += std::max(1, n / 10)) {
          for (int bad = 1; bad <= f; ++bad) {
            auto batch = random_batch(n, d, 400 + static_cast<std::uint64_t>(n * f + bad));
            plant_nan_rows(batch, 0, n, bad);
            const std::string where = std::string(lane.name) + " n=" + std::to_string(n) +
                                      " d=" + std::to_string(d) + " f=" + std::to_string(f) +
                                      " nan rows=" + std::to_string(bad);
            EXPECT_TRUE(is_clean_row(run_rule(krum, batch, f, lane), batch)) << where;
            EXPECT_TRUE(all_finite(run_rule(multikrum, batch, f, lane).coefficients())) << where;
            if (n >= 4 * f + 3) {
              EXPECT_TRUE(all_finite(run_rule(bulyan, batch, f, lane).coefficients())) << where;
            }
          }
        }
      }
    }
  }
  // A hierarchy of Krum or Multi-Krum leaves under a CWTM root, shard s
  // holding s mod 4 NaN rows against a leaf budget of 3: at d = 8 in the
  // f64 lanes on AVX-512 hosts the leaves take the shard-lane route
  // (detail::krum_shard_lanes), in the f32 lane the packed one.  Every
  // leaf output and the root's stay finite.
  constexpr int kShards = 16, kRows = 25, kD = 8;
  auto batch = random_batch(kShards * kRows, kD, 4747);
  for (int s = 0; s < kShards; ++s) plant_nan_rows(batch, s * kRows, kRows, s % 4);
  agg::ThreadPool pool(4);
  for (const auto& lane : kLanes) {
    for (const char* leaf : {"krum", "multikrum"}) {
      const agg::HierarchicalAggregator hier({kShards, leaf, "cwtm", 3, 0});
      for (const int threads : {1, 4}) {
        AggregatorWorkspace ws;
        configure(ws, lane);
        ws.pool = threads > 1 ? &pool : nullptr;
        Vector out;
        hier.aggregate_into(out, batch, 7, ws);
        const std::string where = std::string(lane.name) + " " + leaf + " leaves, threads " +
                                  std::to_string(threads);
        EXPECT_TRUE(all_finite(out.coefficients())) << where;
        for (int s = 0; s < kShards; ++s) {
          EXPECT_TRUE(all_finite(ws.hier_root.row(s))) << where << " shard " << s;
        }
      }
    }
  }
}

/// A many-like tree: Krum leaves, CWTM root.  The library's hierarchy must
/// equal a test-local composition of the reference per-shard Krum and
/// CwtmAggregator, at one thread and four.
Vector reference_hierarchy(const GradientBatch& batch, int f, std::uint64_t assignment_seed,
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
    const auto out = reference_krum(shard, shard_f, kLanes[0]);
    root.set_row(s, out);
  }
  AggregatorWorkspace ws;
  Vector out;
  agg::CwtmAggregator().aggregate_into(out, root, bounds.f_root, ws);
  return out;
}

TEST(KrumSelect, ManyLikeHierarchyMatchesTheReferenceComposition) {
  // The composition's leaves are the reference Krum.
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
      const auto expected = reference_hierarchy(batch, f, seed, hier);
      for (const int threads : {1, 4}) {
        AggregatorWorkspace ws;
        ws.pool = threads > 1 ? &pool : nullptr;
        Vector out;
        hier.aggregate_into(out, batch, f, ws);
        EXPECT_TRUE(bitwise_equal(out, expected))
            << rows << "-row shards, seed " << seed << " threads " << threads;
      }
    }
  }
}

}  // namespace
