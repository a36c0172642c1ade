// Batcher's odd-even merge network (agg/sort_network.hpp) and the eight-row
// smallest-k sum the small-leaf Krum route scores with (rank_kernel.hpp
// smallest_k_sum_lanes).
//
//   * the networks on 4, 8 and 16 inputs (the scorer's half-sorts) sort
//     every 0-1 input (by the 0-1 principle, every input), and dropping any
//     one comparator breaks that;
//   * the networks on 4 to 32 inputs sort random inputs full of ties;
//   * on AVX-512 builds, every row's smallest_k_sum_lanes sum has the bits
//     of smallest_k_sum and of the scalar reference of Krum's score
//     (krum_reference.hpp): m 1-32, every k, rows with ties, 0, +inf and
//     NaN mapped to +inf, a tie past the k-th in one lane only, and a
//     +inf k-th entry with more +inf entries than it keeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "abft/agg/rank_kernel.hpp"
#include "abft/agg/sort_network.hpp"
#include "abft/util/rng.hpp"
#include "krum_reference.hpp"

namespace {

using namespace abft;

/// Runs the network on v, skipping comparator `skip` (-1: none).
template <int Size>
void run_network(double* v, int skip = -1) {
  const auto& net = agg::detail::kBatcherNetwork<Size>;
  for (int c = 0; c < static_cast<int>(net.size()); ++c) {
    if (c == skip) continue;
    auto& lo = v[net[static_cast<std::size_t>(c)].first];
    auto& hi = v[net[static_cast<std::size_t>(c)].second];
    const double a = lo;
    lo = std::min(a, hi);
    hi = std::max(a, hi);
  }
}

/// True when the network (less comparator `skip`) sorts every 0-1 input.
template <int Size>
bool sorts_every_zero_one_input(int skip = -1) {
  double v[Size];
  for (std::uint32_t bits = 0; bits < (std::uint32_t{1} << Size); ++bits) {
    for (int i = 0; i < Size; ++i) v[i] = static_cast<double>((bits >> i) & 1);
    run_network<Size>(v, skip);
    if (!std::is_sorted(v, v + Size)) return false;
  }
  return true;
}

TEST(SortNetwork, ComparatorCountsAreBatchers) {
  EXPECT_EQ(agg::detail::kBatcherNetwork<4>.size(), 5u);
  EXPECT_EQ(agg::detail::kBatcherNetwork<8>.size(), 19u);
  EXPECT_EQ(agg::detail::kBatcherNetwork<16>.size(), 63u);
  EXPECT_EQ(agg::detail::kBatcherNetwork<32>.size(), 191u);
  for (const auto& [a, b] : agg::detail::kBatcherNetwork<32>) {
    EXPECT_LT(a, b);
    EXPECT_LT(b, 32);
  }
}

TEST(SortNetwork, SortsEveryZeroOneInputAtSizes8And16) {
  EXPECT_TRUE(sorts_every_zero_one_input<4>());
  EXPECT_TRUE(sorts_every_zero_one_input<8>());
  EXPECT_TRUE(sorts_every_zero_one_input<16>());
}

TEST(SortNetwork, DroppingAnyComparatorBreaksSizes8And16) {
  for (int c = 0; c < static_cast<int>(agg::detail::kBatcherNetwork<4>.size()); ++c) {
    EXPECT_FALSE(sorts_every_zero_one_input<4>(c)) << "comparator " << c;
  }
  for (int c = 0; c < static_cast<int>(agg::detail::kBatcherNetwork<8>.size()); ++c) {
    EXPECT_FALSE(sorts_every_zero_one_input<8>(c)) << "comparator " << c;
  }
  for (int c = 0; c < static_cast<int>(agg::detail::kBatcherNetwork<16>.size()); ++c) {
    EXPECT_FALSE(sorts_every_zero_one_input<16>(c)) << "comparator " << c;
  }
}

template <int Size>
void expect_sorts_random_ties(util::Rng& rng) {
  double v[Size];
  for (int trial = 0; trial < 20000; ++trial) {
    // Few distinct values, so most inputs hold ties.
    const auto values = 1 + rng.uniform_index(6);
    for (auto& x : v) x = static_cast<double>(rng.uniform_index(values));
    std::vector<double> expected(v, v + Size);
    std::sort(expected.begin(), expected.end());
    run_network<Size>(v);
    ASSERT_TRUE(std::equal(expected.begin(), expected.end(), v)) << "size " << Size;
  }
}

TEST(SortNetwork, SortsRandomInputsWithTiesAtEverySize) {
  util::Rng rng(24);
  expect_sorts_random_ties<4>(rng);
  expect_sorts_random_ties<8>(rng);
  expect_sorts_random_ties<16>(rng);
  expect_sorts_random_ties<32>(rng);
}

TEST(SmallestKSumLanes, MatchesSmallestKSumOnEveryCertifiedRow) {
  // Every row is certified now: each lane's sum must equal smallest_k_sum's
  // and the scalar reference's bit for bit, ties at the k-th included.
#if defined(__AVX512F__)
  if (__builtin_cpu_supports("avx512f") == 0) GTEST_SKIP() << "no AVX-512 on this host";
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(32);
  alignas(64) double cand[32 * 8];
  std::vector<double> row;
  int tied = 0;
  int one_lane_ties = 0;  // kind 3 registers
  int inf_kth = 0;        // kind 4 registers with +inf entries past the k-th
  for (int m = 1; m <= 32; ++m) {
    for (int k = 1; k <= m; ++k) {
      for (int trial = 0; trial < 40; ++trial) {
        // Per trial one of: distinct values; a few values (ties); a few
        // values plus 0, +inf and now and then a NaN, which the Krum
        // candidate builders map to +inf before scoring; distinct values
        // but for one lane whose k-th entry ties the (k+1)-th, so that
        // lane reruns the register the other lanes scored in one pass; or
        // fewer than k finite entries per lane, so the k-th is +inf and
        // more +inf entries follow it than the k - #{finite} kept.
        const int kind = trial % 5;
        for (int x = 0; x < m; ++x) {
          for (int t = 0; t < 8; ++t) {
            double v = rng.uniform();
            if (kind == 1 || kind == 2) v = static_cast<double>(rng.uniform_index(4)) * 0.5;
            if (kind == 2) {
              const double u = rng.uniform();
              if (u < 0.1) v = 0.0;
              if (u > 0.9) v = kInf;
              if (u > 0.99) v = kNan;
            }
            cand[x * 8 + t] = agg::detail::nan_as_inf(v);
          }
        }
        if (kind == 3 && k < m) {
          const auto lane = static_cast<int>(rng.uniform_index(8));
          std::vector<int> order(static_cast<std::size_t>(m));
          for (int x = 0; x < m; ++x) order[static_cast<std::size_t>(x)] = x;
          std::sort(order.begin(), order.end(), [&](int a, int b) {
            return cand[a * 8 + lane] < cand[b * 8 + lane];
          });
          cand[order[static_cast<std::size_t>(k)] * 8 + lane] =
              cand[order[static_cast<std::size_t>(k - 1)] * 8 + lane];
          ++one_lane_ties;
        }
        if (kind == 4) {
          for (int t = 0; t < 8; ++t) {
            auto finite = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(k)));
            for (int x = 0; x < m; ++x) {
              const bool keep_finite = finite > 0 && rng.uniform_index(
                  static_cast<std::uint64_t>(m - x)) < static_cast<std::uint64_t>(finite);
              if (keep_finite) {
                --finite;
              } else {
                cand[x * 8 + t] = kInf;
              }
            }
          }
          inf_kth += k < m;
        }
        alignas(64) double sums[8];
        _mm512_store_pd(sums, agg::detail::smallest_k_sum_lanes(cand, m, k));
        for (int t = 0; t < 8; ++t) {
          row.clear();
          for (int x = 0; x < m; ++x) row.push_back(cand[x * 8 + t]);
          const double expected = agg::detail::smallest_k_sum(row.data(), m, k);
          const double reference = krum_reference::score(row, k);
          const std::string where = "m=" + std::to_string(m) + " k=" + std::to_string(k) +
                                    " trial=" + std::to_string(trial) + " lane=" +
                                    std::to_string(t);
          ASSERT_EQ(std::memcmp(&sums[t], &expected, sizeof(double)), 0)
              << where << ": " << sums[t] << " vs " << expected;
          ASSERT_EQ(std::memcmp(&sums[t], &reference, sizeof(double)), 0)
              << where << ": " << sums[t] << " vs reference " << reference;
          auto sorted = row;
          std::sort(sorted.begin(), sorted.end());
          tied += k < m && sorted[static_cast<std::size_t>(k)] ==
                               sorted[static_cast<std::size_t>(k - 1)];
        }
      }
    }
  }
  // Ties at the k-th entry occur often, so the tie-break is exercised, in
  // both rare shapes too.
  EXPECT_GT(tied, 10000);
  EXPECT_GT(one_lane_ties, 1000);
  EXPECT_GT(inf_kth, 1000);
#else
  GTEST_SKIP() << "smallest_k_sum_lanes needs an AVX-512 build";
#endif
}

}  // namespace
