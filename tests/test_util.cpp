// Unit tests for abft::util — RNG determinism and distribution sanity,
// combinatorics, statistics, table/CSV formatting and the JSON reader's
// nesting cap.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <vector>

#include "abft/util/check.hpp"
#include "abft/util/combinatorics.hpp"
#include "abft/util/csv.hpp"
#include "abft/util/json.hpp"
#include "abft/util/rng.hpp"
#include "abft/util/stats.hpp"
#include "abft/util/table.hpp"

namespace {

using namespace abft::util;

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(ABFT_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(ABFT_REQUIRE(true, "fine"));
}

TEST(Check, EnsureThrowsLogicError) {
  EXPECT_THROW(ABFT_ENSURE(false, "bug"), std::logic_error);
}

TEST(Rng, DeterministicForFixedSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
  EXPECT_THROW(rng.uniform(2.0, 1.0), std::invalid_argument);
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng rng(11);
  std::vector<int> counts(5, 0);
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 0.2, 0.02);
  }
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIndexKeepsTheDrawsOfTheThresholdFirstFormula) {
  // The formula as first written: the rejection threshold 2^64 mod bound
  // computed before every call's first draw.  uniform_index computes it
  // only for a draw below bound; its draws and its stream must not move.
  const auto threshold_first = [](Rng& rng, std::uint64_t bound) {
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = rng.next_u64();
      if (r >= threshold) return r % bound;
    }
  };
  std::vector<std::uint64_t> bounds{1, 2, 3, 6700, (std::uint64_t{1} << 63) + 1, UINT64_MAX};
  for (int k = 2; k < 64; ++k) {
    const std::uint64_t power = std::uint64_t{1} << k;
    bounds.insert(bounds.end(), {power - 1, power, power + 1});
  }
  for (const std::uint64_t bound : bounds) {
    Rng rng(bound ^ 0x5eed);
    Rng reference(bound ^ 0x5eed);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(rng.uniform_index(bound), threshold_first(reference, bound))
          << "bound " << bound << " draw " << i;
    }
    // The state advanced by the same number of raw draws.
    EXPECT_EQ(rng.next_u64(), reference.next_u64()) << "bound " << bound;
  }
}

TEST(Rng, NormalMomentsMatchStandardGaussian) {
  Rng rng(13);
  const int draws = 100000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < draws; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / draws, 1.0, 0.03);
}

TEST(Rng, ScaledNormalRejectsNegativeStddev) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), std::invalid_argument);
}

TEST(Rng, PermutationIsAPermutation) {
  Rng rng(3);
  const auto perm = rng.permutation(50);
  std::set<int> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(5);
  const auto sample = rng.sample_without_replacement(20, 8);
  EXPECT_EQ(sample.size(), 8u);
  std::set<int> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 8u);
  for (int v : sample) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.split();
  // The child stream differs from the parent's continuation.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Combinatorics, BinomialSmallValues) {
  EXPECT_EQ(binomial(6, 5), 6u);
  EXPECT_EQ(binomial(6, 4), 15u);
  EXPECT_EQ(binomial(10, 0), 1u);
  EXPECT_EQ(binomial(10, 10), 1u);
  EXPECT_EQ(binomial(5, 7), 0u);
  EXPECT_EQ(binomial(52, 5), 2598960u);
}

TEST(Combinatorics, BinomialOverflowDetected) {
  EXPECT_THROW(binomial(200, 100), std::invalid_argument);
}

TEST(Combinatorics, EnumerationCountsMatchBinomial) {
  for (int n = 0; n <= 8; ++n) {
    for (int k = 0; k <= n; ++k) {
      long count = 0;
      for_each_combination(n, k, [&count](const std::vector<int>&) {
        ++count;
        return true;
      });
      EXPECT_EQ(static_cast<std::uint64_t>(count), binomial(n, k)) << "n=" << n << " k=" << k;
    }
  }
}

TEST(Combinatorics, LexicographicOrderAndSortedness) {
  std::vector<std::vector<int>> combos;
  for_each_combination(5, 3, [&combos](const std::vector<int>& comb) {
    combos.push_back(comb);
    return true;
  });
  ASSERT_EQ(combos.size(), 10u);
  EXPECT_EQ(combos.front(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(combos.back(), (std::vector<int>{2, 3, 4}));
  for (std::size_t i = 1; i < combos.size(); ++i) {
    EXPECT_LT(combos[i - 1], combos[i]);
    EXPECT_TRUE(std::is_sorted(combos[i].begin(), combos[i].end()));
  }
}

TEST(Combinatorics, EarlyStopHonored) {
  int calls = 0;
  for_each_combination(10, 3, [&calls](const std::vector<int>&) {
    ++calls;
    return calls < 4;
  });
  EXPECT_EQ(calls, 4);
}

TEST(Combinatorics, SubsetsOfBaseKeepElements) {
  const std::vector<int> base{2, 5, 7};
  const auto subsets = all_subsets_of(base, 2);
  ASSERT_EQ(subsets.size(), 3u);
  EXPECT_EQ(subsets[0], (std::vector<int>{2, 5}));
  EXPECT_EQ(subsets[1], (std::vector<int>{2, 7}));
  EXPECT_EQ(subsets[2], (std::vector<int>{5, 7}));
}

TEST(Combinatorics, SubsetPredicate) {
  EXPECT_TRUE(is_subset_sorted({1, 3}, {0, 1, 2, 3}));
  EXPECT_FALSE(is_subset_sorted({1, 5}, {0, 1, 2, 3}));
  EXPECT_TRUE(is_subset_sorted({}, {0}));
}

TEST(Stats, BasicMoments) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(variance(xs), 1.25);
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 4.0);
}

TEST(Stats, EmptyRangeRejected) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), std::invalid_argument);
  EXPECT_THROW(min_value(empty), std::invalid_argument);
}

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add_row({"x", "1.5"});
  table.add_row({"longer", "2"});
  std::ostringstream os;
  table.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name"), std::string::npos);
  EXPECT_NE(out.find("| longer"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(Table, RejectsRaggedRows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(format_scientific(0.00151, 2), "1.51e-03");
  EXPECT_EQ(format_double(1.0780, 4), "1.078");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesHeaderAndRows) {
  std::ostringstream os;
  CsvWriter csv(os, {"t", "loss"});
  csv.add_numeric_row({1.0, 0.5});
  const std::string out = os.str();
  EXPECT_NE(out.find("t,loss"), std::string::npos);
  EXPECT_NE(out.find("1,0.5"), std::string::npos);
}

TEST(Csv, RejectsWrongWidth) {
  std::ostringstream os;
  CsvWriter csv(os, {"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), std::invalid_argument);
}

// The reader recurses once per array/object level: a file of a million '['
// must be rejected with a positioned parse error, not overflow the stack.
TEST(Json, RejectsNestingPastTheDepthCap) {
  try {
    parse_json(std::string(1000000, '['));
    FAIL() << "expected the nesting cap to reject the document";
  } catch (const std::invalid_argument& error) {
    const std::string where = "json parse error at 1:" + std::to_string(kMaxJsonDepth + 1);
    EXPECT_NE(std::string(error.what()).find(where), std::string::npos) << error.what();
  }
  EXPECT_THROW(parse_json(std::string(kMaxJsonDepth + 1, '[') +
                          std::string(kMaxJsonDepth + 1, ']')),
               std::invalid_argument);
  std::string deepest;
  for (int i = 0; i < kMaxJsonDepth; ++i) deepest += i % 2 == 0 ? "[" : "{\"k\":";
  deepest += "1";
  for (int i = kMaxJsonDepth; i-- > 0;) deepest += i % 2 == 0 ? "]" : "}";
  EXPECT_NO_THROW(parse_json(deepest));
}

}  // namespace
