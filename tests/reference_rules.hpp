// Naive reference implementations of the registry's gradient filters, the
// oracle the parity suites compare the library's aggregate_into against.
// Each is the rule's definition written out over std::vector<Vector> with
// plain sorts and loops, sharing no code with src/abft/agg beyond the
// Vector type and the Krum score of krum_reference.hpp.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "abft/linalg/vector.hpp"

namespace reference_rules {

using abft::linalg::Vector;

/// The registry rule `name` (default parameters) applied to `gradients`
/// with fault bound f.  Throws std::invalid_argument where the library
/// rule rejects the shape: empty or ragged input, f outside [0, n), and
/// the rule's own bound (cwtm n > 2f, krum/multikrum n > 2f + 2, bulyan
/// n >= 4f + 3).
Vector aggregate(std::string_view name, std::span<const Vector> gradients, int f);

/// Indices of the n - f smallest-norm gradients in ascending norm, ties by
/// index: the set CGE sums.
std::vector<int> cge_kept(std::span<const Vector> gradients, int f);

}  // namespace reference_rules
