// The Gram fill (AggregatorWorkspace::fill_pairwise_sqdist, f64 and f32
// lanes).  On AVX-512 hosts rows of 32 or more columns run a 4 x 4
// register-blocked tile kernel partitioned over row tiles; shorter rows and
// other hosts run the per-pair scalar kernels.  Whichever path runs, these
// checks hold:
//
//   * the packed triangle is bitwise equal at 1, 2 and 4 threads;
//   * each pair's value depends only on its two rows: pair (i, j) of an
//     n-row batch equals, bit for bit, the single pair of the 2-row batch
//     {row i, row j} — so neither the tile a pair lands in, nor its slot in
//     the tile, nor the duplicate rows that pad an edge tile change it;
//   * the f64 lane gives the same bits in exact and fast mode, and the f32
//     lane lies within its envelope of exact mode;
//   * a clustered batch, whose Gram identity cancels catastrophically, still
//     gets accurate distances from the cancellation-guard recompute;
//   * the f32 lane's demoted rows and their squared norms, filled in one
//     pass, keep the bits of the element-wise cast and of a 16-lane norm.
//
// Shapes straddle the tile (n around multiples of 4) and the chunk and lane
// boundaries (d around 16 and 1024, and the wide workload's d = 10^4).
//
// The f64 lane's per-pair contract has its own sweep below: in both modes,
// at every thread count and on every host, each cell must equal a std::fma
// spelling of the per-pair operation sequence, chunk by chunk, and lie
// within the envelope of the direct difference.
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
                              agg::ThreadPool* pool = nullptr) {
  agg::AggregatorWorkspace ws;
  ws.mode = agg::AggMode::fast;
  ws.precision = precision;
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
        EXPECT_TRUE(bitwise_equal(serial, fast_fill(batch, precision, &pool2)))
            << label << " pool 2";
        EXPECT_TRUE(bitwise_equal(serial, fast_fill(batch, precision, &pool4)))
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
  // Fast f64 runs exact mode's per-pair sequence, so it gives exact's bits.
  // The f32 lane rounds every input to float (relative 2^-24 per
  // coordinate) and accumulates in float over at most 64-term lanes; its
  // bound is relative to the cancellation scale ||xi||^2 + ||xj||^2 and
  // sits far above the rounding it can produce.
  util::Rng rng(4242);
  for (const int n : kRows) {
    for (const int d : kCols) {
      const auto batch = random_batch(rng, n, d);
      agg::AggregatorWorkspace exact;
      exact.fill_pairwise_sqdist(batch);
      exact.fill_sqnorms(batch);
      for (const auto precision : kPrecisions) {
        const std::string label = shape_label(precision, n, d);
        agg::AggregatorWorkspace fast;
        fast.mode = agg::AggMode::fast;
        fast.precision = precision;
        fast.fill_pairwise_sqdist(batch);
        if (precision == agg::Precision::f64) {
          EXPECT_TRUE(bitwise_equal(fast.pairdist, exact.pairdist)) << label << " fast vs exact";
          continue;
        }
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j) {
            const double scale = exact.sqnorms[static_cast<std::size_t>(i)] +
                                 exact.sqnorms[static_cast<std::size_t>(j)];
            ASSERT_NEAR(fast.pair_sqdist(i, j, n), exact.pair_sqdist(i, j, n), 1e-5 * scale)
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

/// A demoted row's squared norm in the f32 lane's operation order: 16 lanes
/// over the whole lane groups, the leftover summed sequentially, then the
/// lanes added to it in lane order.
float sqnorm_f32_reference(const float* r, int d) {
  constexpr int kLanes = 16;
  float lanes[kLanes] = {0.0f};
  int k = 0;
  for (; k + kLanes <= d; k += kLanes) {
    for (int b = 0; b < kLanes; ++b) lanes[b] += r[k + b] * r[k + b];
  }
  float sum = 0.0f;
  for (; k < d; ++k) sum += r[k] * r[k];
  for (int b = 0; b < kLanes; ++b) sum += lanes[b];
  return sum;
}

TEST(GramBlocked, F32DemotionAndNormsKeepTheirBits) {
  // The f32 lane demotes each row and sums its squared norm in one pass;
  // both must keep the bits of the element-wise cast and of the reference
  // above, at every thread count (one thread per row).
  util::Rng rng(31);
  agg::ThreadPool pool4(4);
  for (const int d : {31, 32, 33, 1000, 10007}) {
    for (const int n : {2, 9, 50}) {
      const auto batch = random_batch(rng, n, d);
      for (const int threads : {1, 4}) {
        const std::string label = shape_label(agg::Precision::f32, n, d) +
                                  " threads=" + std::to_string(threads);
        agg::AggregatorWorkspace ws;
        ws.mode = agg::AggMode::fast;
        ws.precision = agg::Precision::f32;
        ws.pool = threads > 1 ? &pool4 : nullptr;
        ws.fill_pairwise_sqdist(batch);
        ASSERT_EQ(ws.rows_f32.size(), static_cast<std::size_t>(n) * static_cast<std::size_t>(d));
        ASSERT_EQ(ws.sqnorms_f32.size(), static_cast<std::size_t>(n)) << label;
        std::vector<float> demoted(ws.rows_f32.size());
        for (std::size_t k = 0; k < demoted.size(); ++k) {
          demoted[k] = static_cast<float>(batch.data()[k]);
        }
        EXPECT_EQ(std::memcmp(ws.rows_f32.data(), demoted.data(), demoted.size() * sizeof(float)),
                  0)
            << label;
        for (int i = 0; i < n; ++i) {
          const float expected =
              sqnorm_f32_reference(demoted.data() + static_cast<std::size_t>(i) * d, d);
          const float got = ws.sqnorms_f32[static_cast<std::size_t>(i)];
          EXPECT_EQ(std::memcmp(&got, &expected, sizeof(float)), 0) << label << " row " << i;
        }
      }
    }
  }
}

// --- the f64 lane's per-pair contract --------------------------------------

constexpr int kCellRows[] = {2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 25, 33, 100};
/// Around the 8-lane groups, the tile's 32 columns and the 1024-column
/// chunks.
constexpr int kCellCols[] = {7, 8, 12, 31, 32, 33, 1023, 1024, 1025, 2049};
constexpr int kChunk = 1024;

enum class Rows { random, clustered, zero_rows };

/// Random rows; clustered rows (a common 100 per coordinate plus 1e-2
/// deltas, so every pair takes the cancellation guard); or random rows with
/// every third row zero (zero scale: no guard, distance 0 between them).
agg::GradientBatch cell_batch(util::Rng& rng, int n, int d, Rows kind) {
  agg::GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    for (auto& x : batch.row(i)) {
      x = kind == Rows::clustered ? 100.0 + 1e-2 * rng.normal() : rng.normal();
      if (kind == Rows::zero_rows && i % 3 == 0) x = 0.0;
    }
  }
  return batch;
}

/// The per-pair dot over d columns: lane b an FMA chain over the whole
/// 8-lane groups, then the leftover (each product rounded before its add:
/// the build never contracts) and lanes 0..7 in order.
double pinned_dot(const double* a, const double* b, int d) {
  double lanes[8] = {0.0};
  const int whole = d - d % 8;
  for (int k = 0; k < whole; k += 8) {
    for (int t = 0; t < 8; ++t) lanes[t] = std::fma(a[k + t], b[k + t], lanes[t]);
  }
  double dot = 0.0;
  for (int k = whole; k < d; ++k) dot += a[k] * b[k];
  for (int t = 0; t < 8; ++t) dot += lanes[t];
  return dot;
}

/// The pinned distance: the cell 0.0 + dot(chunk 0) + dot(chunk 1) + ...
/// over 1024-column chunks, the Gram identity fma(-2, cell, scale) over
/// whole-row squared norms, the std::max(0.0, .) clamp, and the guard's
/// direct difference over the whole row.
double pinned_sqdist(const double* ri, const double* rj, int d) {
  const double scale = pinned_dot(ri, ri, d) + pinned_dot(rj, rj, d);
  double cell = 0.0;
  for (int k0 = 0; k0 < d; k0 += kChunk) {
    cell += pinned_dot(ri + k0, rj + k0, std::min(kChunk, d - k0));
  }
  const double d2 = std::max(0.0, std::fma(-2.0, cell, scale));
  if (!(d2 < 1e-6 * scale)) return d2;
  std::vector<double> diff(static_cast<std::size_t>(d));
  for (int k = 0; k < d; ++k) diff[static_cast<std::size_t>(k)] = ri[k] - rj[k];
  return pinned_dot(diff.data(), diff.data(), d);
}

std::vector<double> fill(const agg::GradientBatch& batch, agg::AggMode mode,
                         agg::ThreadPool* pool = nullptr) {
  agg::AggregatorWorkspace ws;
  ws.mode = mode;
  ws.pool = pool;
  ws.fill_pairwise_sqdist(batch);
  return ws.pairdist;
}

TEST(GramBlocked, F64CellsRunThePerPairSequenceInBothModes) {
  // Every f64 cell, on the tile or the per-pair kernel, in either mode and
  // at every thread count, equals the pinned per-pair sequence, so fast
  // equals exact bit for bit and a cell depends only on its two rows.
  util::Rng rng(180);
  agg::ThreadPool pool2(2);
  agg::ThreadPool pool4(4);
  for (const Rows kind : {Rows::random, Rows::clustered, Rows::zero_rows}) {
    for (const int n : kCellRows) {
      for (const int d : kCellCols) {
        const auto batch = cell_batch(rng, n, d, kind);
        std::vector<double> sqnorms(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) {
          for (const double x : batch.row(i)) sqnorms[static_cast<std::size_t>(i)] += x * x;
        }
        const auto exact = fill(batch, agg::AggMode::exact);
        ASSERT_EQ(exact.size(), static_cast<std::size_t>(n) * (n - 1) / 2);
        for (const auto mode : {agg::AggMode::exact, agg::AggMode::fast}) {
          const std::string label = std::string(mode == agg::AggMode::exact ? "exact" : "fast") +
                                    " kind=" + std::to_string(static_cast<int>(kind)) +
                                    " n=" + std::to_string(n) + " d=" + std::to_string(d);
          EXPECT_TRUE(bitwise_equal(exact, fill(batch, mode))) << label << " threads 1";
          EXPECT_TRUE(bitwise_equal(exact, fill(batch, mode, &pool2))) << label << " pool 2";
          EXPECT_TRUE(bitwise_equal(exact, fill(batch, mode, &pool4))) << label << " pool 4";
        }
        const std::string label = "kind=" + std::to_string(static_cast<int>(kind)) +
                                  " n=" + std::to_string(n) + " d=" + std::to_string(d);
        std::size_t cell = 0;
        for (int i = 0; i < n; ++i) {
          for (int j = i + 1; j < n; ++j, ++cell) {
            const double got = exact[cell];
            const double expected = pinned_sqdist(batch.row(i).data(), batch.row(j).data(), d);
            ASSERT_EQ(std::memcmp(&expected, &got, sizeof(double)), 0)
                << label << " pair (" << i << ", " << j << "): " << got << " vs pinned "
                << expected;
            // The envelope of the direct difference: relative to the Gram
            // scale off the guard, to the distance itself on it (clustered
            // rows), and exact for two zero rows.
            double direct = 0.0;
            for (int k = 0; k < d; ++k) {
              const double diff = batch.row(i)[static_cast<std::size_t>(k)] -
                                  batch.row(j)[static_cast<std::size_t>(k)];
              direct += diff * diff;
            }
            const double scale =
                sqnorms[static_cast<std::size_t>(i)] + sqnorms[static_cast<std::size_t>(j)];
            const double tol = kind == Rows::clustered ? 1e-10 * direct : 1e-13 * scale;
            ASSERT_NEAR(got, direct, tol) << label << " pair (" << i << ", " << j << ")";
          }
        }
      }
    }
  }
}

}  // namespace
