// Routing tests for the rank-kernel cutoff (rank_kernel.hpp).
//
// CWTM and CWMed send a column to the O(n^2) rank kernel when
// n <= kRankKernelCutoff and the column has no duplicate entries; longer
// columns and columns with duplicates take nth_element selection.  The
// cutoff is one constant for every mode, precision and host, so each rule
// has one numeric path: its output must not depend on the mode, the
// precision knob or the thread count, and CWMed (whose two routes pick the
// same entries) must equal the sort-based reference (reference_rules.hpp)
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "abft/agg/rank_kernel.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"
#include "krum_reference.hpp"
#include "reference_rules.hpp"

namespace {

using namespace abft;
using agg::Vector;

TEST(RankKernelCutoff, CwmedOutputInvariantUnderRouting) {
  // n straddles the cutoff, so both routes run; the planted duplicate (row
  // 1 copies row 0) sends every rank-route column to the selection
  // fallback as well.
  constexpr int kCut = agg::detail::kRankKernelCutoff;
  static_assert(kCut + 1 < 400, "the n list must reach past the cutoff");
  struct Lane {
    agg::AggMode mode;
    agg::Precision precision;
    const char* label;
  };
  const Lane lanes[] = {{agg::AggMode::exact, agg::Precision::f64, "exact"},
                        {agg::AggMode::fast, agg::Precision::f64, "fast/f64"},
                        {agg::AggMode::fast, agg::Precision::f32, "fast/f32"}};
  agg::ThreadPool pool(4);
  util::Rng rng(20260802);
  const int d = 37;  // two full 16-column tiles and a tail
  for (const int n : {3, 21, kCut - 1, kCut, kCut + 1, 400}) {
    for (const bool duplicate : {false, true}) {
      agg::GradientBatch batch(n, d);
      for (int i = 0; i < n; ++i) {
        auto row = batch.row(i);
        for (int k = 0; k < d; ++k) row[static_cast<std::size_t>(k)] = rng.normal();
      }
      if (duplicate) batch.set_row(1, batch.unpack_row(0));
      const int f = std::max(1, n / 5);
      for (const std::string_view name : {"cwtm", "cwmed"}) {
        const auto rule = agg::make_aggregator(name);
        const std::string where = std::string(name) + " n=" + std::to_string(n) +
                                  (duplicate ? " duplicate" : " distinct");
        Vector reference;
        {
          agg::AggregatorWorkspace ws;
          rule->aggregate_into(reference, batch, f, ws);
        }
        if (name == "cwmed") {
          EXPECT_EQ(reference, reference_rules::aggregate(name, batch.unpack(), f))
              << where << " vs reference";
        }
        for (const Lane& lane : lanes) {
          for (const int threads : {1, 4}) {
            agg::AggregatorWorkspace ws;
            ws.mode = lane.mode;
            ws.precision = lane.precision;
            ws.pool = threads > 1 ? &pool : nullptr;
            Vector out;
            rule->aggregate_into(out, batch, f, ws);
            EXPECT_EQ(out, reference) << where << " " << lane.label << " threads=" << threads;
          }
        }
      }
    }
  }
}

TEST(RankKernelCutoff, RankCountsMatchPortable) {
  // The SIMD rank kernel must agree with the scalar definition
  // lt[j] = #{i : col[i] < col[j]} on duplicate-free and duplicate-heavy
  // columns alike, across full and masked-tail register blocks.
  util::Rng rng(778899);
  for (const int n : {1, 7, 16, 17, 33, 512}) {
    std::vector<double> col(static_cast<std::size_t>(n));
    for (auto& v : col) v = rng.normal();
    if (n >= 16) col[5] = col[11];  // plant a duplicate
    std::vector<std::int64_t> lt(static_cast<std::size_t>(n));
    agg::detail::rank_counts(col.data(), n, lt.data());
    for (int j = 0; j < n; ++j) {
      std::int64_t expected = 0;
      for (int i = 0; i < n; ++i) expected += col[static_cast<std::size_t>(i)] <
                                              col[static_cast<std::size_t>(j)];
      EXPECT_EQ(lt[static_cast<std::size_t>(j)], expected) << "n=" << n << " j=" << j;
    }
  }
}

TEST(RankKernelCutoff, SmallestKSumMatchesPortable) {
  // smallest_k_sum (rank counts with the index tie-break) and
  // smallest_k_sum_select (nth_element and a keep pass) against the scalar
  // reference of Krum's score (krum_reference.hpp), bit for bit, on full
  // and partial register blocks and on both sides of the Krum rank-select
  // cutoff, with ties, zeros, -0.0, +inf and NaN (mapped to +inf, as the
  // Krum candidate builders do).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double specials[] = {0.0, kInf, -0.0, std::numeric_limits<double>::quiet_NaN()};
  util::Rng rng(20261017);
  std::vector<double> scratch;
  for (int m = 1; m <= 200; m += m < 100 ? 1 : 33) {
    for (int trial = 0; trial < 24; ++trial) {
      std::vector<double> x(static_cast<std::size_t>(m));
      for (auto& v : x) {
        // Trials 0-7: distinct values; 8-15: ties from a 4-value pool;
        // 16-23: also one special value in about one entry of 8.
        v = trial < 8 ? rng.uniform() : static_cast<double>(rng.uniform_index(4));
        if (trial >= 16 && rng.uniform_index(8) == 0) v = specials[trial % 4];
        v = agg::detail::nan_as_inf(v);
      }
      scratch.resize(x.size());
      for (const int k : {1, (m + 1) / 2, m}) {
        const std::string where = "m=" + std::to_string(m) + " trial=" + std::to_string(trial) +
                                  " k=" + std::to_string(k);
        const double expected = krum_reference::score(x, k);
        const double select = agg::detail::smallest_k_sum_select(x.data(), m, k, scratch.data());
        EXPECT_EQ(std::memcmp(&select, &expected, sizeof(double)), 0)
            << where << ": " << select << " vs " << expected;
        const double sum = agg::detail::smallest_k_sum(x.data(), m, k);
        EXPECT_EQ(std::memcmp(&sum, &expected, sizeof(double)), 0)
            << where << ": " << sum << " vs " << expected;
      }
    }
  }
}

}  // namespace
