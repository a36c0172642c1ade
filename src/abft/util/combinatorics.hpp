// Subset enumeration used by the redundancy analyzer and the exhaustive
// (f, 2eps)-resilient algorithm of Theorem 2, both of which quantify over all
// (n-f)- and (n-2f)-element subsets of agents.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace abft::util {

/// Number of k-element subsets of an n-element set.  Throws on overflow.
std::uint64_t binomial(int n, int k);

/// Invokes `fn` once for every k-element subset of {0, ..., n-1}, in
/// lexicographic order.  The span passed to `fn` is only valid during the
/// call.  If `fn` returns false, enumeration stops early.
void for_each_combination(int n, int k, const std::function<bool(const std::vector<int>&)>& fn);

/// All k-element subsets of the given base set, in lexicographic order of
/// positions (elements keep their base order).
std::vector<std::vector<int>> all_subsets_of(const std::vector<int>& base, int k);

/// True if `sub` (sorted) is a subset of `super` (sorted).
bool is_subset_sorted(const std::vector<int>& sub, const std::vector<int>& super);

}  // namespace abft::util
