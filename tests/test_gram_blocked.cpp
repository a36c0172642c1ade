// The fast-mode Gram fill (AggregatorWorkspace::fill_pairwise_sqdist under
// AggMode::fast, f64 and f32 lanes).  On AVX-512 hosts it runs a 4 x 4
// register-blocked tile kernel partitioned over row tiles; elsewhere it falls
// back to the per-pair scalar kernels.  Whichever path runs, these checks
// hold:
//
//   * the packed triangle is bitwise equal at 1, 2 and 4 threads, through
//     the persistent pool and through the spawning parallel_for;
//   * each pair's value depends only on its two rows: pair (i, j) of an
//     n-row batch equals, bit for bit, the single pair of the 2-row batch
//     {row i, row j} — so neither the tile a pair lands in, nor its slot in
//     the tile, nor the duplicate rows that pad an edge tile change it;
//   * every distance lies within the lane's envelope of exact mode;
//   * a clustered batch, whose Gram identity cancels catastrophically, still
//     gets accurate distances from the cancellation-guard recompute.
//
// Shapes straddle the tile (n around multiples of 4) and the chunk and lane
// boundaries (d around 16 and 1024, and the wide workload's d = 10^4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "abft/agg/batch.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;

constexpr int kRows[] = {2, 3, 4, 5, 7, 8, 9, 50, 51};
constexpr int kCols[] = {1, 15, 16, 17, 1023, 1024, 1025, 10000};

agg::GradientBatch random_batch(util::Rng& rng, int n, int d) {
  agg::GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    for (auto& x : batch.row(i)) x = rng.normal();
  }
  return batch;
}

/// The packed triangle of the lane `ws` ran, as doubles (f32 values
/// promoted, which is exact).
std::vector<double> packed(const agg::AggregatorWorkspace& ws) {
  if (ws.f32_lane()) return {ws.pairdist_f32.begin(), ws.pairdist_f32.end()};
  return ws.pairdist;
}

std::vector<double> fast_fill(const agg::GradientBatch& batch, agg::Precision precision,
                              int threads = 1, agg::ThreadPool* pool = nullptr) {
  agg::AggregatorWorkspace ws;
  ws.mode = agg::AggMode::fast;
  ws.precision = precision;
  ws.parallel_threads = threads;
  ws.pool = pool;
  ws.fill_pairwise_sqdist(batch);
  return packed(ws);
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::string shape_label(agg::Precision precision, int n, int d) {
  return std::string(precision == agg::Precision::f32 ? "f32" : "f64") +
         " n=" + std::to_string(n) + " d=" + std::to_string(d);
}

constexpr agg::Precision kPrecisions[] = {agg::Precision::f64, agg::Precision::f32};

TEST(GramBlocked, BitwiseEqualAtEveryThreadCountAndDispatch) {
  util::Rng rng(20261017);
  agg::ThreadPool pool2(2);
  agg::ThreadPool pool4(4);
  for (const int n : kRows) {
    for (const int d : kCols) {
      const auto batch = random_batch(rng, n, d);
      for (const auto precision : kPrecisions) {
        const std::string label = shape_label(precision, n, d);
        const auto serial = fast_fill(batch, precision);
        ASSERT_EQ(serial.size(), static_cast<std::size_t>(n) * (n - 1) / 2) << label;
        EXPECT_TRUE(bitwise_equal(serial, fast_fill(batch, precision, 2))) << label << " spawn 2";
        EXPECT_TRUE(bitwise_equal(serial, fast_fill(batch, precision, 4))) << label << " spawn 4";
        EXPECT_TRUE(bitwise_equal(serial, fast_fill(batch, precision, 2, &pool2)))
            << label << " pool 2";
        EXPECT_TRUE(bitwise_equal(serial, fast_fill(batch, precision, 4, &pool4)))
            << label << " pool 4";
      }
    }
  }
}

TEST(GramBlocked, EachPairDependsOnlyOnItsRows) {
  util::Rng rng(77);
  for (const int n : {5, 9, 51}) {
    for (const int d : {17, 1025, 10000}) {
      const auto batch = random_batch(rng, n, d);
      for (const auto precision : kPrecisions) {
        const std::string label = shape_label(precision, n, d);
        agg::AggregatorWorkspace ws;
        ws.mode = agg::AggMode::fast;
        ws.precision = precision;
        ws.fill_pairwise_sqdist(batch);
        agg::GradientBatch pair(2, d);
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            pair.set_row(0, batch.row(i));
            pair.set_row(1, batch.row(j));
            const auto alone = fast_fill(pair, precision);
            const double in_batch = ws.pair_sqdist(i, j, n);
            ASSERT_EQ(std::memcmp(&alone[0], &in_batch, sizeof(double)), 0)
                << label << " pair (" << i << ", " << j << "): " << in_batch << " vs "
                << alone[0];
          }
        }
      }
    }
  }
}

TEST(GramBlocked, WithinLaneEnvelopeOfExact) {
  // Exact and fast f64 both sum products in double, in different orders;
  // the f32 lane also rounds every input to float (relative 2^-24 per
  // coordinate) and accumulates in float over at most 64-term lanes.  Both
  // bounds are relative to the cancellation scale ||xi||^2 + ||xj||^2 and
  // sit far above the rounding those orders can produce.
  util::Rng rng(4242);
  for (const int n : kRows) {
    for (const int d : kCols) {
      const auto batch = random_batch(rng, n, d);
      agg::AggregatorWorkspace exact;
      exact.fill_pairwise_sqdist(batch);
      exact.fill_sqnorms(batch);
      for (const auto precision : kPrecisions) {
        const std::string label = shape_label(precision, n, d);
        const double tol = precision == agg::Precision::f32 ? 1e-5 : 1e-12;
        agg::AggregatorWorkspace fast;
        fast.mode = agg::AggMode::fast;
        fast.precision = precision;
        fast.fill_pairwise_sqdist(batch);
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            const double scale = exact.sqnorms[static_cast<std::size_t>(i)] +
                                 exact.sqnorms[static_cast<std::size_t>(j)];
            ASSERT_NEAR(fast.pair_sqdist(i, j, n), exact.pair_sqdist(i, j, n), tol * scale)
                << label << " pair (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

TEST(GramBlocked, ClusteredBatchTakesTheCancellationGuard) {
  // Rows share a common component of 100 per coordinate and differ by
  // 1e-2-sized deltas, so ||xi - xj||^2 is about 1e-8 of the Gram scale:
  // far below both lanes' guards (1e-6 in f64, 1e-3 in f32).  Through the
  // Gram identity alone f64 would keep about half its digits and f32 none
  // (its rounding error, ~6e-8 of the scale, is several times the
  // distance).  The bounds below hold only if the pair was recomputed by
  // direct differences: f64 to near machine precision, f32 to the
  // precision its demoted inputs keep (ulp(100) in float is 7.6e-6, about
  // 1e-3 of a delta).
  util::Rng rng(99);
  for (const int n : {5, 9, 50}) {
    for (const int d : {17, 1025, 10000}) {
      agg::GradientBatch batch(n, d);
      for (int i = 0; i < n; ++i) {
        auto row = batch.row(i);
        for (int k = 0; k < d; ++k) row[static_cast<std::size_t>(k)] = 100.0 + 1e-2 * rng.normal();
      }
      for (const auto precision : kPrecisions) {
        const std::string label = shape_label(precision, n, d);
        const double rel = precision == agg::Precision::f32 ? 2e-2 : 1e-10;
        agg::AggregatorWorkspace fast;
        fast.mode = agg::AggMode::fast;
        fast.precision = precision;
        fast.fill_pairwise_sqdist(batch);
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            double direct = 0.0;
            for (int k = 0; k < d; ++k) {
              const double diff = batch.row(i)[static_cast<std::size_t>(k)] -
                                  batch.row(j)[static_cast<std::size_t>(k)];
              direct += diff * diff;
            }
            ASSERT_NEAR(fast.pair_sqdist(i, j, n), direct, rel * direct)
                << label << " pair (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

}  // namespace
