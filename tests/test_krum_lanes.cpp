// Oracle tests for the shard-lane Krum route (krum.hpp
// detail::krum_select_lanes and both rules' aggregate_shards).
//
// A hierarchy level of Krum or Multi-Krum leaves at 8 <= d < 32 with at
// most 33 rows per shard (AVX-512, f64 in either mode) scores eight shards
// per register, one shard per lane.  Its contract is that every shard's
// scores, pick, Multi-Krum order and output equal the per-leaf packed
// route's bit for bit: the shard's rows gathered into their own batch, the
// packed triangle filled, then krum_select.  That route is the oracle here,
// and every comparison is bitwise; the packed leaf's scores are in turn
// checked against the scalar reference of Krum's score
// (krum_reference.hpp).  A lane must not depend on the lane it lands in, on
// the other shards of its group, or on the thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "abft/agg/krum.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"
#include "krum_reference.hpp"

namespace {

using namespace abft;
using agg::AggMode;
using agg::AggregatorWorkspace;
using agg::GradientBatch;
using agg::Precision;

constexpr int kLanes = AggregatorWorkspace::kSmallDLanes;

/// True where the route can run: AVX-512 at runtime (it also needs an
/// AVX-512 build, which krum_shard_lanes checks).
bool avx512_host() {
#if defined(__AVX512F__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx512f") != 0;
#else
  return false;
#endif
}

GradientBatch random_batch(int n, int d, std::uint64_t seed, double scale = 1.0) {
  util::Rng rng(seed);
  GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    for (auto& v : batch.row(i)) v = scale * rng.normal();
  }
  return batch;
}

/// Copies row `from` over every row in [first, last).
void duplicate_rows(GradientBatch& batch, int from, int first, int last) {
  const auto src = batch.row(from);
  for (int i = first; i < last; ++i) {
    batch.set_row(i, std::span<const double>(src.data(), src.size()));
  }
}

/// The shard kinds: random; clustered (a common 100 per coordinate, so
/// every pair takes the cancellation guard); tied (a third of the rows copy
/// row 0); duplicate (every row equal); zero rows; and non-finite ones: a
/// NaN coordinate, one +inf row, two rows at +inf in the same coordinate (a
/// NaN distance between them, counted as +inf), and one row at 1e154 (its
/// distances overflow to +inf).
std::vector<std::pair<std::string, GradientBatch>> shard_kinds(int n, int d, std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<std::pair<std::string, GradientBatch>> kinds;
  kinds.emplace_back("random", random_batch(n, d, seed));
  auto clustered = random_batch(n, d, seed + 1, 1e-2);
  for (int i = 0; i < n; ++i) {
    for (auto& v : clustered.row(i)) v += 100.0;
  }
  kinds.emplace_back("clustered", std::move(clustered));
  auto tied = random_batch(n, d, seed + 2);
  duplicate_rows(tied, 0, 1, std::max(1, n / 3));
  kinds.emplace_back("tied", std::move(tied));
  auto equal = random_batch(n, d, seed + 3);
  duplicate_rows(equal, 0, 1, n);
  kinds.emplace_back("duplicate", std::move(equal));
  auto zeros = random_batch(n, d, seed + 4);
  for (int i = 0; i < n; i += 2) {
    for (auto& v : zeros.row(i)) v = 0.0;
  }
  kinds.emplace_back("zero-rows", std::move(zeros));
  auto nan = random_batch(n, d, seed + 5);
  nan.row(n / 2)[1] = std::numeric_limits<double>::quiet_NaN();
  kinds.emplace_back("nan-row", std::move(nan));
  auto inf = random_batch(n, d, seed + 6);
  inf.row(n - 1)[0] = kInf;
  kinds.emplace_back("inf-row", std::move(inf));
  auto inf_pair = random_batch(n, d, seed + 7);
  inf_pair.row(0)[0] = kInf;
  inf_pair.row(n - 1)[0] = kInf;
  kinds.emplace_back("inf-pair", std::move(inf_pair));
  auto huge = random_batch(n, d, seed + 8);
  for (auto& v : huge.row(n / 3)) v *= 1e154;
  kinds.emplace_back("row-1e154", std::move(huge));
  return kinds;
}

/// The shards stacked into one payload: shard s is rows [s n, (s + 1) n).
GradientBatch stack(const std::vector<std::pair<std::string, GradientBatch>>& shards) {
  const int n = shards.front().second.rows();
  const int d = shards.front().second.cols();
  GradientBatch payload(static_cast<int>(shards.size()) * n, d);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    for (int i = 0; i < n; ++i) {
      payload.set_row(static_cast<int>(s) * n + i, shards[s].second.row(i));
    }
  }
  return payload;
}

std::vector<int> stable_order(const std::vector<double>& scores) {
  std::vector<int> order(scores.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&scores](int a, int b) {
    return scores[static_cast<std::size_t>(a)] < scores[static_cast<std::size_t>(b)];
  });
  return order;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// The per-leaf packed route on one gathered shard: its scores and pick,
/// and the reference scores of its packed triangle.
struct LeafResult {
  std::vector<double> scores;
  std::vector<double> reference;
  int best = -1;
};

LeafResult packed_leaf(const GradientBatch& shard, AggMode mode, int neighbors) {
  AggregatorWorkspace ws;
  ws.mode = mode;
  ws.fill_pairwise_sqdist(shard);
  const int n = shard.rows();
  LeafResult r;
  r.best = agg::detail::krum_select(ws, n, neighbors, nullptr);
  r.scores = ws.scores;
  std::vector<double> row(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ws.gather_pair_row(i, n, row.data());
    std::vector<double> cand(row);
    cand.erase(cand.begin() + i);
    r.reference.push_back(krum_reference::score(cand, neighbors));
  }
  return r;
}

/// Lane t's scores out of ws.scores (shard t's row i at 8 i + t).
std::vector<double> lane_scores(const AggregatorWorkspace& ws, int rows, int t) {
  std::vector<double> scores(static_cast<std::size_t>(rows));
  for (int i = 0; i < rows; ++i) {
    scores[static_cast<std::size_t>(i)] = ws.scores[static_cast<std::size_t>(i * kLanes + t)];
  }
  return scores;
}

TEST(KrumLanes, RouteTakesSmallDF64LevelsAndNothingElse) {
  for (const AggMode mode : {AggMode::exact, AggMode::fast}) {
    for (const Precision precision : {Precision::f64, Precision::f32}) {
      AggregatorWorkspace ws;
      ws.mode = mode;
      ws.precision = precision;
      const bool f64 = !(mode == AggMode::fast && precision == Precision::f32);
      for (const int rows : {3, 25, 33, 34}) {
        for (const int d : {3, 7, 8, 31, 32}) {
          const bool expected = avx512_host() && f64 && rows <= 33 && d >= 8 && d < 32;
          EXPECT_EQ(agg::detail::krum_shard_lanes(ws, rows, d), expected)
              << "rows=" << rows << " d=" << d;
        }
      }
    }
  }
}

TEST(KrumLanes, EveryShardMatchesThePackedLeafInAnyLane) {
  // Nine shards, one of each kind: lanes 0..7 in one group and the ninth
  // alone (a partial group), then the same shards reversed, so each shard
  // is scored in two lanes next to different neighbours.  Every k, every
  // leaf size the route takes, d on both sides of each 8-lane group and
  // every leftover width 0..7 past the last whole group.
  if (!avx512_host()) GTEST_SKIP() << "the shard-lane route needs AVX-512";
  for (const AggMode mode : {AggMode::exact, AggMode::fast}) {
    for (int rows = 2; rows <= agg::detail::kLaneShardMaxRows; ++rows) {
      for (const int d : {8, 9, 10, 12, 13, 14, 15, 16, 17, 19, 22, 24, 31}) {
        const auto seed = 100 * static_cast<std::uint64_t>(rows) + static_cast<std::uint64_t>(d);
        const auto kinds = shard_kinds(rows, d, seed);
        const auto payload = stack(kinds);
        const int shards = static_cast<int>(kinds.size());
        std::vector<int> ids(static_cast<std::size_t>(payload.rows()));
        std::iota(ids.begin(), ids.end(), 0);
        const auto shard_ids = [&](int s) { return ids.data() + s * rows; };
        AggregatorWorkspace ws;
        ws.mode = mode;
        ASSERT_TRUE(agg::detail::krum_shard_lanes(ws, rows, d));
        for (int k = 1; k < rows; ++k) {
          std::vector<LeafResult> oracle;
          for (const auto& kind : kinds) oracle.push_back(packed_leaf(kind.second, mode, k));
          for (const bool reversed : {false, true}) {
            for (int begin = 0; begin < shards; begin += kLanes) {
              const int lanes = std::min(kLanes, shards - begin);
              const int* lane_ids[kLanes];
              int placed[kLanes];
              for (int t = 0; t < lanes; ++t) {
                placed[t] = reversed ? shards - 1 - (begin + t) : begin + t;
                lane_ids[t] = shard_ids(placed[t]);
              }
              int best[kLanes];
              agg::detail::krum_select_lanes(ws, payload, lane_ids, lanes, rows, k, best);
              for (int t = 0; t < lanes; ++t) {
                const auto& expected = oracle[static_cast<std::size_t>(placed[t])];
                const auto got = lane_scores(ws, rows, t);
                const std::string where =
                    std::string(mode == AggMode::exact ? "exact " : "fast ") +
                    kinds[static_cast<std::size_t>(placed[t])].first + " rows=" +
                    std::to_string(rows) + " d=" + std::to_string(d) + " k=" + std::to_string(k) +
                    " lane=" + std::to_string(t) + " of " + std::to_string(lanes);
                ASSERT_TRUE(same_bytes(got, expected.scores)) << where;
                ASSERT_TRUE(same_bytes(got, expected.reference)) << where;
                ASSERT_EQ(best[t], expected.best) << where;
                ASSERT_EQ(stable_order(got), stable_order(expected.scores)) << where;
              }
            }
          }
        }
      }
    }
  }
}

TEST(KrumLanes, UnusedLanesTakeNoPart) {
  // A partial group writes no pick for its unused lanes, and a shard's
  // bits do not change when it shares its group with non-finite shards.
  if (!avx512_host()) GTEST_SKIP() << "the shard-lane route needs AVX-512";
  constexpr int rows = 25;
  constexpr int d = 8;
  const auto kinds = shard_kinds(rows, d, 4242);
  const auto payload = stack(kinds);
  std::vector<int> ids(static_cast<std::size_t>(payload.rows()));
  std::iota(ids.begin(), ids.end(), 0);
  const int random_shard = 0;
  const int huge_shard = static_cast<int>(kinds.size()) - 1;
  for (int k = 1; k < rows; ++k) {
    const auto expected = packed_leaf(kinds[random_shard].second, AggMode::exact, k);
    for (int lanes = 1; lanes <= kLanes; ++lanes) {
      // The random shard in the last used lane, the 1e154 one before it.
      const int* lane_ids[kLanes];
      for (int t = 0; t < lanes; ++t) {
        lane_ids[t] = ids.data() + (t + 1 == lanes ? random_shard : huge_shard) * rows;
      }
      int best[kLanes];
      std::fill_n(best, kLanes, -7);
      AggregatorWorkspace ws;
      agg::detail::krum_select_lanes(ws, payload, lane_ids, lanes, rows, k, best);
      EXPECT_TRUE(same_bytes(lane_scores(ws, rows, lanes - 1), expected.scores))
          << "k=" << k << " lanes=" << lanes;
      EXPECT_EQ(best[lanes - 1], expected.best) << "k=" << k << " lanes=" << lanes;
      for (int t = lanes; t < kLanes; ++t) {
        EXPECT_EQ(best[t], -7) << "k=" << k << " lanes=" << lanes << " unused lane " << t;
      }
    }
  }
}

/// A payload of `n` rows whose shards (identity assignment, `shards` of
/// them) mix every kind: most rows random, and a few shards carrying a
/// tie, a NaN, an +inf row or a 1e154 row.
GradientBatch mixed_payload(int n, int d, int shards, std::uint64_t seed) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto payload = random_batch(n, d, seed);
  const auto first = [&](int s) { return agg::shard_begin(n, shards, s); };
  if (shards > 1) duplicate_rows(payload, first(1), first(1) + 1, first(1) + 3);
  if (shards > 2) payload.row(first(2) + 1)[0] = std::numeric_limits<double>::quiet_NaN();
  if (shards > 3) payload.row(first(3))[1] = kInf;
  if (shards > 4) {
    for (auto& v : payload.row(first(4) + 2)) v *= 1e154;
  }
  if (shards > 5) {
    for (int i = first(5); i < first(6); ++i) {
      for (auto& v : payload.row(i)) v = 100.0 + 1e-2 * v;
    }
  }
  return payload;
}

TEST(KrumLanes, HierarchyLevelMatchesThePerLeafRouteAtEveryThreadCount) {
  // Krum and Multi-Krum aggregate_shards against the base route (each
  // shard gathered and run through aggregate_into, which fills the packed
  // triangle).  Shard counts give both sizes in one call and a partial
  // last group of each; d = 7 and 32 sit outside the route, where the two
  // must agree trivially.  Threads 1, 2 and 4 on a pool, exact and fast.
  agg::ThreadPool pool2(2);
  agg::ThreadPool pool4(4);
  agg::ThreadPool* const pools[] = {nullptr, &pool2, &pool4};
  const agg::KrumAggregator krum;
  const agg::MultiKrumAggregator multikrum;
  const agg::MultiKrumAggregator multikrum3(3);
  const std::vector<const agg::GradientAggregator*> rules = {&krum, &multikrum, &multikrum3};
  for (const auto& [shards, n] : {std::pair{13, 13 * 16 + 5}, std::pair{11, 11 * 25 + 10},
                                 std::pair{20, 20 * 3 + 19}, std::pair{9, 9 * 32 + 8},
                                 std::pair{17, 17 * 9}, std::pair{3, 3 * 33}}) {
    for (const int d : {7, 8, 9, 15, 16, 17, 24, 31, 32}) {
      const auto seed = 31 * static_cast<std::uint64_t>(n) + static_cast<std::uint64_t>(d);
      const auto payload = mixed_payload(n, d, shards, seed);
      std::vector<int> ids(static_cast<std::size_t>(n));
      std::iota(ids.begin(), ids.end(), 0);
      // A seeded assignment too, so each shard mixes rows from the whole
      // payload.
      util::Rng rng(static_cast<std::uint64_t>(n));
      auto shuffled = ids;
      for (int i = n - 1; i > 0; --i) {
        std::swap(shuffled[static_cast<std::size_t>(i)],
                  shuffled[rng.uniform_index(static_cast<std::uint64_t>(i) + 1)]);
      }
      const int small = n / shards;
      for (const auto* rule : rules) {
        for (const AggMode mode : {AggMode::exact, AggMode::fast}) {
          for (const auto* assignment : {&ids, &shuffled}) {
            for (int f = 0; 2 * f + 2 < small; ++f) {
              if (rule == &multikrum3 && small < 3) continue;
              AggregatorWorkspace base;
              base.mode = mode;
              GradientBatch expected;
              rule->GradientAggregator::aggregate_shards(expected, payload, *assignment, shards, f,
                                                         base);
              for (agg::ThreadPool* pool : pools) {
                const int threads = pool == nullptr ? 1 : pool->width();
                AggregatorWorkspace ws;
                ws.mode = mode;
                ws.pool = pool;
                GradientBatch got;
                rule->aggregate_shards(got, payload, *assignment, shards, f, ws);
                ASSERT_EQ(got.rows(), shards);
                ASSERT_EQ(std::memcmp(got.data(), expected.data(),
                                      static_cast<std::size_t>(shards) * d * sizeof(double)),
                          0)
                    << rule->name() << " shards=" << shards << " n=" << n << " d=" << d
                    << " f=" << f << " threads=" << threads
                    << (assignment == &ids ? " identity" : " shuffled");
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace
