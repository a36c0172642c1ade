#include "abft/util/combinatorics.hpp"

#include <algorithm>
#include <limits>

#include "abft/util/check.hpp"

namespace abft::util {

std::uint64_t binomial(int n, int k) {
  ABFT_REQUIRE(n >= 0 && k >= 0, "binomial needs n, k >= 0");
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    const auto numer = static_cast<std::uint64_t>(n - k + i);
    ABFT_REQUIRE(result <= std::numeric_limits<std::uint64_t>::max() / numer,
                 "binomial(n, k) overflows 64 bits");
    result = result * numer / static_cast<std::uint64_t>(i);
  }
  return result;
}

void for_each_combination(int n, int k, const std::function<bool(const std::vector<int>&)>& fn) {
  ABFT_REQUIRE(n >= 0 && k >= 0, "for_each_combination needs n, k >= 0");
  if (k > n) return;
  std::vector<int> comb(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) comb[static_cast<std::size_t>(i)] = i;
  for (;;) {
    if (!fn(comb)) return;
    // Advance to the next lexicographic combination.
    int i = k - 1;
    while (i >= 0 && comb[static_cast<std::size_t>(i)] == n - k + i) --i;
    if (i < 0) return;
    ++comb[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      comb[static_cast<std::size_t>(j)] = comb[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

std::vector<std::vector<int>> all_subsets_of(const std::vector<int>& base, int k) {
  std::vector<std::vector<int>> out;
  const int n = static_cast<int>(base.size());
  for_each_combination(n, k, [&](const std::vector<int>& positions) {
    std::vector<int> subset;
    subset.reserve(positions.size());
    for (int p : positions) subset.push_back(base[static_cast<std::size_t>(p)]);
    out.push_back(std::move(subset));
    return true;
  });
  return out;
}

bool is_subset_sorted(const std::vector<int>& sub, const std::vector<int>& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

}  // namespace abft::util
