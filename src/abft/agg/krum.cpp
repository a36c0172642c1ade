#include "abft/agg/krum.hpp"

#include <algorithm>
#include <numeric>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "abft/agg/rank_kernel.hpp"
#include "abft/util/check.hpp"

namespace abft::agg {

namespace detail {

namespace {

static_assert(kKrumRankSelectMaxRow <= kRankKernelCapacity,
              "smallest_k_sum sizes its stack buffer by kRankKernelCapacity");

/// Row i's candidate distances (every other row, or every other active row)
/// in ascending-j order, NaN as +inf.
void gather_candidates(AggregatorWorkspace& ws, int i, int n, const unsigned char* active,
                       double* dst) {
  double* row = ws.pairrow.data();
  ws.gather_pair_row(i, n, row);
  int m = 0;
  for (int j = 0; j < n; ++j) {
    if (j != i && (active == nullptr || active[j] != 0)) dst[m++] = nan_as_inf(row[j]);
  }
}

/// Every active row's candidates, built in one pass over the packed
/// triangle: the p-th active row's list (the one gather_candidates makes)
/// is cand[p * m, (p + 1) * m), m = live - 1.
template <typename T>
void build_candidates(const T* packed, int n, const unsigned char* active, int m,
                      double* cand) {
  const auto stride = static_cast<std::size_t>(m);
  int pi = 0;  // active rows before i: i's slot, and i's place in later lists
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    const T* run = packed + AggregatorWorkspace::pair_index(i, i + 1, n);
    double* ci = cand + static_cast<std::size_t>(pi) * stride;
    int pj = pi + 1;  // active rows before j
    for (int j = i + 1; j < n; ++j) {
      if (active != nullptr && active[j] == 0) continue;
      const double v = nan_as_inf(static_cast<double>(run[j - i - 1]));
      ci[pj - 1] = v;
      cand[static_cast<std::size_t>(pj) * stride + static_cast<std::size_t>(pi)] = v;
      ++pj;
    }
    ++pi;
  }
}

/// The first of rows [0, n) (the active ones) with the lowest score; row
/// i's score is scores[i * stride].
int first_lowest(const double* scores, int stride, int n, const unsigned char* active) {
  int best = -1;
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    if (best < 0 || scores[i * stride] < scores[best * stride]) best = i;
  }
  return best;
}

}  // namespace

bool krum_shard_lanes(const AggregatorWorkspace& ws, int max_rows, int d) {
  return max_rows <= kLaneShardMaxRows && ws.small_d_kernels(d);
}

void krum_select_lanes(AggregatorWorkspace& ws, const GradientBatch& batch,
                       const int* const* ids, int lanes, int rows, int neighbors, int* best) {
  ABFT_REQUIRE(krum_shard_lanes(ws, rows, batch.cols()), "not a shard-lane Krum call");
  ABFT_REQUIRE(1 <= lanes && lanes <= AggregatorWorkspace::kSmallDLanes,
               "a shard-lane call takes 1 to 8 shards");
  ABFT_REQUIRE(1 <= neighbors && neighbors < rows, "krum neighbours must be in [1, rows - 1]");
#if defined(__AVX512F__)
  constexpr int kLanes = AggregatorWorkspace::kSmallDLanes;
  const int m = rows - 1;
  const auto regs = static_cast<std::size_t>(rows) * kLanes;
  double* cand = aligned_doubles(ws.krum_cand, regs * static_cast<std::size_t>(m));
  ws.scores.resize(regs);
  ws.sqdist_lanes_small_d(batch, ids, lanes, rows, cand);
  for (int i = 0; i < rows; ++i) {
    _mm512_storeu_pd(ws.scores.data() + i * kLanes,
                     smallest_k_sum_lanes(cand + static_cast<std::size_t>(i) * m * kLanes, m,
                                          neighbors));
  }
  for (int t = 0; t < lanes; ++t) {
    best[t] = first_lowest(ws.scores.data() + t, kLanes, rows, nullptr);
  }
#else
  (void)batch, (void)ids, (void)best;  // unreachable: krum_shard_lanes needs AVX-512
#endif
}

int krum_select(AggregatorWorkspace& ws, int n, int neighbors, const unsigned char* active) {
  const auto nn = static_cast<std::size_t>(n);
  ws.scores.resize(nn);
  int live = 0;
  for (int i = 0; i < n; ++i) live += active == nullptr || active[i] != 0 ? 1 : 0;
  const int m = live - 1;
  // Short rows are built at once and rank-counted; a long row is gathered
  // into scratch[0, m) and selected with scratch[m, 2 m) as the copy.
  const bool rank = m <= kKrumRankSelectMaxRow;
  if (rank) {
    ws.krum_cand.resize(static_cast<std::size_t>(live) * static_cast<std::size_t>(m));
    if (ws.f32_lane()) {
      build_candidates(ws.pairdist_f32.data(), n, active, m, ws.krum_cand.data());
    } else {
      build_candidates(ws.pairdist.data(), n, active, m, ws.krum_cand.data());
    }
  } else {
    ws.pairrow.resize(nn);
    ws.scratch.resize(2 * nn);
  }
  const double* cand = ws.krum_cand.data();
  for (int i = 0; i < n; ++i) {
    if (active != nullptr && active[i] == 0) continue;
    double& score = ws.scores[static_cast<std::size_t>(i)];
    if (rank) {
      score = smallest_k_sum(cand, m, neighbors);
      cand += m;
    } else {
      double* row = ws.scratch.data();
      gather_candidates(ws, i, n, active, row);
      score = smallest_k_sum_select(row, m, neighbors, row + m);
    }
  }
  return first_lowest(ws.scores.data(), 1, n, active);
}

}  // namespace detail

namespace {

/// The shard-lane route of both rules' aggregate_shards: equal-size shards
/// in groups of eight (the smaller size first, each size in shard order,
/// so a last group may be partial), the groups split over the worker
/// groups of ws.shard_groups.  emit(sub, lane_ids, rows, t, best, out)
/// writes shard t's output row from sub.scores and its pick.  Returns false,
/// writing nothing, where detail::krum_shard_lanes does not hold.
template <typename Emit>
bool aggregate_shard_lanes(GradientBatch& outputs, const GradientBatch& batch,
                           std::span<const int> ids, int shards, int f, AggregatorWorkspace& ws,
                           Emit&& emit) {
  constexpr int kLanes = AggregatorWorkspace::kSmallDLanes;
  const int n = static_cast<int>(ids.size());
  const int d = batch.cols();
  const int small = n / shards;
  if (!detail::krum_shard_lanes(ws, small + (n % shards != 0 ? 1 : 0), d)) return false;
  ABFT_REQUIRE(f >= 0, "fault bound f must be non-negative");
  ABFT_REQUIRE(small > 2 * f + 2, "krum needs n > 2f + 2");
  outputs.reshape(shards, d);
  const auto rows_of = [n, shards](int s) {
    return shard_begin(n, shards, s + 1) - shard_begin(n, shards, s);
  };
  auto& order = ws.order;  // the shards by size; the leaves draw on sub-workspaces
  order.clear();
  for (int s = 0; s < shards; ++s) {
    if (rows_of(s) == small) order.push_back(s);
  }
  const int small_shards = static_cast<int>(order.size());
  for (int s = 0; s < shards; ++s) {
    if (rows_of(s) != small) order.push_back(s);
  }
  const int small_groups = (small_shards + kLanes - 1) / kLanes;
  const int groups = small_groups + (shards - small_shards + kLanes - 1) / kLanes;
  const int width = ws.shard_groups(groups);
  ws.run_parallel(0, width, [&](int worker_begin, int worker_end) {
    for (int w = worker_begin; w < worker_end; ++w) {
      AggregatorWorkspace& sub = *ws.hier_groups[static_cast<std::size_t>(w)];
      for (int g = shard_begin(groups, width, w); g < shard_begin(groups, width, w + 1); ++g) {
        const int begin = g < small_groups ? g * kLanes
                                           : small_shards + (g - small_groups) * kLanes;
        const int end = std::min(begin + kLanes, g < small_groups ? small_shards : shards);
        const int lanes = end - begin;
        const int* shard = order.data() + begin;
        const int* lane_ids[kLanes];
        for (int t = 0; t < lanes; ++t) lane_ids[t] = ids.data() + shard_begin(n, shards, shard[t]);
        const int rows = rows_of(shard[0]);
        int best[kLanes] = {};
        detail::krum_select_lanes(sub, batch, lane_ids, lanes, rows, rows - f - 2, best);
        for (int t = 0; t < lanes; ++t) {
          emit(sub, lane_ids[t], rows, t, best[t], outputs.row(shard[t]));
        }
      }
    }
  });
  return true;
}

/// Multi-Krum's output: the mean of the m rows with the lowest scores in
/// their stable order, summed in that order, then scaled by 1 / m.  Row
/// i's score is scores[i * stride]; it is batch row ids[i], or row i
/// without ids.
void mean_of_lowest(std::vector<int>& order, const double* scores, int stride, int n, int m,
                    const GradientBatch& batch, const int* ids, std::span<double> out) {
  order.resize(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [scores, stride](int a, int b) {
    return scores[a * stride] < scores[b * stride];
  });
  const int d = batch.cols();
  std::fill(out.begin(), out.end(), 0.0);
  for (int s = 0; s < m; ++s) {
    const int i = order[static_cast<std::size_t>(s)];
    const double* row = batch.row(ids != nullptr ? ids[i] : i).data();
    for (int k = 0; k < d; ++k) out[static_cast<std::size_t>(k)] += row[k];
  }
  const double inv = 1.0 / static_cast<double>(m);
  for (int k = 0; k < d; ++k) out[static_cast<std::size_t>(k)] *= inv;
}

}  // namespace

int KrumAggregator::batched_scores(const GradientBatch& batch, int f, AggregatorWorkspace& ws) {
  const int n = batch.rows();
  ABFT_REQUIRE(n > 2 * f + 2, "krum needs n > 2f + 2");
  ws.fill_pairwise_sqdist(batch);
  return detail::krum_select(ws, n, n - f - 2, nullptr);
}

void KrumAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                    AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int best = batched_scores(batch, f, ws);
  resize_output(out, d);
  const auto row = batch.row(best);
  std::copy(row.begin(), row.end(), out.coefficients().begin());
}

void KrumAggregator::aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                                      std::span<const int> ids, int shards, int f,
                                      AggregatorWorkspace& ws) const {
  const bool lanes = aggregate_shard_lanes(
      outputs, batch, ids, shards, f, ws,
      [&batch](AggregatorWorkspace&, const int* rows, int, int, int best,
               std::span<double> out) {
        const auto row = batch.row(rows[best]);
        std::copy(row.begin(), row.end(), out.begin());
      });
  if (!lanes) GradientAggregator::aggregate_shards(outputs, batch, ids, shards, f, ws);
}

MultiKrumAggregator::MultiKrumAggregator(int m) : m_(m) {
  ABFT_REQUIRE(m >= 0, "multi-krum m must be non-negative");
}

void MultiKrumAggregator::aggregate_into(Vector& out, const GradientBatch& batch, int f,
                                         AggregatorWorkspace& ws) const {
  const int d = validate_batch(batch, f);
  const int n = batch.rows();
  const int m = m_ > 0 ? m_ : n - f;
  ABFT_REQUIRE(m <= n, "multi-krum m must be at most n");
  KrumAggregator::batched_scores(batch, f, ws);
  resize_output(out, d);
  mean_of_lowest(ws.order, ws.scores.data(), 1, n, m, batch, nullptr, out.coefficients());
}

void MultiKrumAggregator::aggregate_shards(GradientBatch& outputs, const GradientBatch& batch,
                                           std::span<const int> ids, int shards, int f,
                                           AggregatorWorkspace& ws) const {
  // Every shard has at least n / shards rows, so m_ fits every shard.
  ABFT_REQUIRE(m_ <= static_cast<int>(ids.size()) / shards, "multi-krum m must be at most n");
  const bool lanes = aggregate_shard_lanes(
      outputs, batch, ids, shards, f, ws,
      [&batch, f, this](AggregatorWorkspace& sub, const int* rows, int n, int t, int,
                        std::span<double> out) {
        mean_of_lowest(sub.order, sub.scores.data() + t, AggregatorWorkspace::kSmallDLanes, n,
                       m_ > 0 ? m_ : n - f, batch, rows, out);
      });
  if (!lanes) GradientAggregator::aggregate_shards(outputs, batch, ids, shards, f, ws);
}

}  // namespace abft::agg
