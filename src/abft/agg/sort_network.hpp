// Internal: Batcher's odd-even merge sorting network, generated at compile
// time, for the small-leaf Krum scorer (rank_kernel.hpp
// smallest_k_sum_network).
//
// A network is a fixed list of comparators (a, b), a < b: after each one,
// position a holds the smaller value and b the larger.  Its operation
// sequence does not depend on the data, so it sorts eight independent rows
// at once when every position holds a register of eight lanes.  The scorer
// sorts the two halves of its 8-32 inputs with the networks on 4, 8 and 16
// inputs and merges only the k-th value out of them.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <utility>

namespace abft::agg::detail {

/// Visits the comparators of Batcher's network on `size` inputs, a power
/// of two, in order (Knuth, TAOCP 5.3.4, Algorithm M in its iterative form).
template <typename Visit>
constexpr void batcher_comparators(int size, Visit&& visit) {
  for (int p = 1; p < size; p *= 2) {
    for (int k = p; k >= 1; k /= 2) {
      for (int j = k % p; j + k < size; j += 2 * k) {
        for (int i = 0; i < k && i + j + k < size; ++i) {
          const int a = i + j;
          const int b = i + j + k;
          if (a / (2 * p) == b / (2 * p)) visit(a, b);
        }
      }
    }
  }
}

template <int Size>
constexpr int batcher_size() {
  int count = 0;
  batcher_comparators(Size, [&count](int, int) { ++count; });
  return count;
}

/// Batcher's network on Size inputs as a constant array of (a, b) pairs.
template <int Size>
constexpr auto batcher_network() {
  static_assert(std::has_single_bit(static_cast<unsigned>(Size)), "a power-of-two network");
  std::array<std::pair<int, int>, static_cast<std::size_t>(batcher_size<Size>())> net{};
  std::size_t at = 0;
  batcher_comparators(Size, [&net, &at](int a, int b) { net[at++] = {a, b}; });
  return net;
}

template <int Size>
inline constexpr auto kBatcherNetwork = batcher_network<Size>();

template <int Size, typename T, typename Compare, std::size_t... I>
[[gnu::always_inline]] inline void apply_network(T* v, Compare& cmp, std::index_sequence<I...>) {
  (cmp(v[kBatcherNetwork<Size>[I].first], v[kBatcherNetwork<Size>[I].second]), ...);
}

/// Sorts v[0, Size) ascending with the network, comparator by comparator.
/// `cmp(lo, hi)` must leave min(lo, hi) in lo and max(lo, hi) in hi.  Every
/// index is a compile-time constant and the whole network is inlined, so an
/// array of registers stays in registers.
template <int Size, typename T, typename Compare>
[[gnu::always_inline]] inline void sort_network(T* v, Compare&& cmp) {
  apply_network<Size>(v, cmp, std::make_index_sequence<kBatcherNetwork<Size>.size()>{});
}

}  // namespace abft::agg::detail
