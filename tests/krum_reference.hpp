// Scalar reference of Krum's score (agg/rank_kernel.hpp), written out from
// its definition for the Krum test suites: count a NaN candidate as +inf,
// sort the (value, index) pairs, keep the first k, add each kept value into
// lane j mod 8 in ascending j, then reduce the lanes with the fixed tree
// ((l0 + l4) + (l2 + l6)) + ((l1 + l5) + (l3 + l7)).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

namespace krum_reference {

inline double score(std::vector<double> x, int k) {
  for (auto& v : x) {
    if (std::isnan(v)) v = std::numeric_limits<double>::infinity();
  }
  const int m = static_cast<int>(x.size());
  std::vector<std::pair<double, int>> pairs;
  for (int j = 0; j < m; ++j) pairs.emplace_back(x[static_cast<std::size_t>(j)], j);
  std::sort(pairs.begin(), pairs.end());
  std::vector<bool> kept(x.size(), false);
  for (int s = 0; s < k; ++s) {
    kept[static_cast<std::size_t>(pairs[static_cast<std::size_t>(s)].second)] = true;
  }
  double l[8] = {0.0};
  for (int j = 0; j < m; ++j) {
    if (kept[static_cast<std::size_t>(j)]) l[j % 8] += x[static_cast<std::size_t>(j)];
  }
  return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]));
}

}  // namespace krum_reference
