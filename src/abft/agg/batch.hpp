// Batched, zero-allocation support for the gradient-filter hot path.
//
// GradientBatch packs the n received gradients into one contiguous
// row-major n x d buffer once per round; AggregatorWorkspace owns every
// piece of scratch the rules need (column buffers, score/norm arrays, the
// pairwise squared-distance matrix) so that steady-state aggregation
// performs no heap allocation at all.  Buffers only ever grow, so a
// workspace reused across rounds (or across rules) settles into a
// fixed-footprint regime after the first call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "abft/agg/threads.hpp"
#include "abft/linalg/vector.hpp"

namespace abft::agg {

using linalg::Vector;

/// Numerical contract of the batched kernels.
///
/// `exact` (the default) keeps every kernel bit-compatible with the legacy
/// span path: same selection tie-breaking, same floating-point summation
/// order, same convergence schedule.  `fast` relaxes that to *tolerance*
/// parity — kernels may vectorize reductions (independent partial sums),
/// replace full sorts with nth_element-style partial selection, and take
/// runtime-dispatched AVX-512 paths.  The (f, eps)-resilience guarantees of
/// the paper only constrain the aggregate, not the arithmetic, so fast mode
/// is semantically safe; its drift is bounded per rule by the
/// tolerance-parity suite in tests/test_agg_fast.cpp (||fast - exact||_inf
/// <= tol(rule, n, d)) and end-to-end by the fast-mode goldens in
/// tests/test_golden_e2e.cpp.
enum class AggMode {
  exact,  ///< bit-compatible with the span path (the default)
  fast,   ///< relaxed parity: vectorized/partial-selection kernels
};

/// Element width of the bandwidth-bound fast-mode kernels.
///
/// `f64` (the default) keeps every kernel on doubles.  `f32` demotes the
/// *inputs* of the two distance kernels — the Gram fill behind Krum,
/// Multi-Krum and Bulyan stage 1 (fill_pairwise_sqdist, pair_sqdist,
/// gather_pair_row) and the col-major coreset k-center pass — to float,
/// halving the bytes those memory-bound passes move.  Every other rule
/// (CWTM, CWMed, GeoMed, GMoM, CClip, Bulyan stage 2, average, CGE,
/// NormClip) ignores the knob: its f32 result is its fast/f64 result
/// bit for bit.  Selection and tie-breaking still run over a deterministic
/// order, and the aggregate itself is accumulated and emitted in f64.  The
/// knob only has effect under AggMode::fast; exact mode ignores it entirely
/// (workspaces reject the combination at the scenario layer).  Like
/// fast/f64, the f32 lane is bit-identical across thread counts: every
/// demoted value and every f32 reduction is computed by exactly one writer
/// in a fixed order.  The fast Gram fill of both widths shares one AVX-512
/// micro-kernel templated on the element type: a 4 x 4 tile of pair dot
/// products per pass over a column chunk (see fill_pairwise_sqdist).
enum class Precision {
  f64,  ///< double-precision kernels (the default)
  f32,  ///< float inputs for the bandwidth-bound fast kernels
};

/// Contiguous row-major n x d matrix of gradients.  Row i is gradient i.
/// reshape() never shrinks capacity, so a batch reused across rounds stops
/// allocating once it has seen the largest (n, d) shape.
class GradientBatch {
 public:
  GradientBatch() = default;
  GradientBatch(int n, int d) { reshape(n, d); }

  /// Sets the logical shape.  Existing contents become unspecified; every
  /// row must be written before the batch is handed to an aggregator.
  void reshape(int n, int d);

  /// reshape + copy: packs a family of equal-dimension vectors.
  void pack(std::span<const Vector> gradients);

  [[nodiscard]] int rows() const noexcept { return n_; }
  [[nodiscard]] int cols() const noexcept { return d_; }
  [[nodiscard]] bool empty() const noexcept { return n_ == 0 || d_ == 0; }

  [[nodiscard]] std::span<double> row(int i) noexcept {
    return {data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
            static_cast<std::size_t>(d_)};
  }
  [[nodiscard]] std::span<const double> row(int i) const noexcept {
    return {data_.data() + static_cast<std::size_t>(i) * static_cast<std::size_t>(d_),
            static_cast<std::size_t>(d_)};
  }

  /// Copies a vector into row i (dimension must equal cols()).
  void set_row(int i, const Vector& v);

  /// Row-writer ingest: copies a raw coefficient span into row i.  This is
  /// how agents, fault injectors and the network hand gradients to the
  /// filter without staging std::vector<Vector> messages.
  void set_row(int i, std::span<const double> values);

  /// Shrinks the logical row count to n (n <= rows()) without touching the
  /// surviving rows — the compaction step after the network has written the
  /// delivered messages into the leading rows.
  void truncate_rows(int n);

  /// Copies row i out into a Vector (allocates; not for the hot path).
  [[nodiscard]] Vector unpack_row(int i) const;

  /// Copies the whole batch out into vectors (allocates; adapter/test use).
  [[nodiscard]] std::vector<Vector> unpack() const;

  [[nodiscard]] double* data() noexcept { return data_.data(); }
  [[nodiscard]] const double* data() const noexcept { return data_.data(); }

 private:
  std::vector<double> data_;
  int n_ = 0;
  int d_ = 0;
};

/// Reusable scratch for the batched aggregation kernels.  All buffers grow
/// monotonically; fill_* helpers recompute derived quantities from a batch.
struct AggregatorWorkspace {
  // --- configuration -------------------------------------------------------
  /// Numerical mode of every kernel drawing scratch from this workspace (see
  /// AggMode).  Drivers thread their config flag through here; the default
  /// keeps the bit-exact legacy behaviour.
  AggMode mode = AggMode::exact;

  /// Element width of the bandwidth-bound fast-mode kernels (see Precision).
  /// Only consulted when mode == AggMode::fast; exact mode always runs f64.
  Precision precision = Precision::f64;

  /// True when the float32 compute lane is active (fast mode + f32 knob).
  [[nodiscard]] bool f32_lane() const noexcept {
    return mode == AggMode::fast && precision == Precision::f32;
  }

  /// Coordinate/pair-level parallel-for width for large d.  1 (the default)
  /// keeps every kernel single-threaded; drivers thread their config flag
  /// through here.
  int parallel_threads = 1;

  /// Optional persistent thread pool.  When set, every kernel parallel-for
  /// dispatches over the pool's sleeping workers instead of spawning a fresh
  /// thread team per call; drivers share one pool between round-level
  /// parallelism and the kernels (phases are sequential, so the pool is
  /// never re-entered).  Non-owning: the driver owns the pool.
  ThreadPool* pool = nullptr;

  /// Kernel-side parallel dispatch: pool when available, the spawning
  /// parallel_for otherwise (compatible with workspaces configured by hand).
  template <typename Fn>
  void run_parallel(int begin, int end, Fn&& fn);

  // --- scratch buffers -----------------------------------------------------
  std::vector<double> colmajor;  ///< d x n transposed copy of the batch
  std::vector<double> norms;     ///< per-gradient Euclidean norms (n)
  std::vector<double> sqnorms;   ///< per-gradient squared norms (n)
  /// Packed strictly-upper-triangular squared pairwise distances: entry
  /// (i, j) with i < j lives at pair_index(i, j, n), n*(n-1)/2 entries
  /// total.  Storing each unordered pair once (no diagonal, no mirror)
  /// halves the matrix traffic and drops the full n^2 zero-assign the old
  /// square layout paid; consumers go through pair_sqdist() /
  /// gather_pair_row() or walk the packed rows directly.
  std::vector<double> pairdist;
  std::vector<double> pairrow;   ///< one gathered pairdist row (n), scratch
  std::vector<double> scores;    ///< per-gradient filter scores (n)
  std::vector<double> scratch;   ///< misc n-sized scratch (dists, columns)
  std::vector<double> vecbuf;    ///< misc d-sized scratch (Weiszfeld, cclip)
  // --- float32 lane mirrors (see Precision) -------------------------------
  // Filled only when f32_lane() is active, by the Gram fill and the coreset
  // k-center pass: rows_f32 is the demote-on-ingest copy of the batch
  // (n x d, row-major), colmajor_f32 its transpose (coreset), sqnorms_f32
  // the per-row squared norms of the demoted rows and pairdist_f32 the
  // packed triangular distances (same layout as pairdist; Gram fill), and
  // vecbuf_f32 a d-sized scratch for the demoted coreset pivot.
  std::vector<float> rows_f32;      ///< demoted batch rows (n x d)
  std::vector<float> colmajor_f32;  ///< d x n transpose of rows_f32 (coreset)
  std::vector<float> sqnorms_f32;   ///< squared norms of the demoted rows (n)
  std::vector<float> pairdist_f32;  ///< packed triangular distances, f32 lane
  std::vector<float> vecbuf_f32;    ///< d-sized f32 scratch (coreset pivot)
  std::vector<int> order;        ///< index permutation (n)
  std::vector<unsigned char> active;  ///< selection mask (n), Bulyan stage 1
  // Certified Krum scorer (krum.hpp detail::krum_select): per-row score
  // state (canonical / old / due for the old score) and the interval that
  // holds each row's old score.
  std::vector<unsigned char> krum_state;  ///< per-row score state (n)
  std::vector<double> krum_lo;            ///< interval lower ends (n)
  std::vector<double> krum_hi;            ///< interval upper ends (n)
  // Bulyan fast-mode stage 1 (incremental iterated-Krum scores): per-row
  // distance-sorted neighbour ids, their inverse permutation, and the
  // per-row selection-prefix cursor / selected count.
  std::vector<int> sorted_ids;   ///< n x n neighbour ids, ascending distance
  std::vector<int> ranks;        ///< rank of j in i's sorted order (n x n)
  std::vector<int> heads;        ///< one past the selection prefix (n)
  std::vector<int> counts;       ///< selected neighbours in the prefix (n)
  GradientBatch aux_batch;       ///< secondary batch (GMoM buckets, Bulyan)
  GradientBatch clip_batch;      ///< clipped copy for ClippedInputAggregator
  // Hierarchical (aggregate-of-aggregates) scratch — agg/hierarchy.hpp.  One
  // sub-workspace / gather batch / output staging vector per parallel worker
  // group, so the footprint scales with the worker width, not the shard
  // count (a thousand Gram shards through one workspace would otherwise pin
  // a thousand pairdist matrices).  unique_ptr keeps the recursive member
  // representable; it also makes the workspace move-only, which every
  // driver already satisfies (workspaces are constructed in place).
  std::vector<std::unique_ptr<AggregatorWorkspace>> hier_groups;
  std::vector<GradientBatch> hier_gather;  ///< per-group shard input rows
  std::vector<Vector> hier_out;            ///< per-group shard output staging
  GradientBatch hier_root;                 ///< S x d shard outputs
  std::vector<int> hier_perm;              ///< seeded shard assignment (n)
  // Coreset pre-reduction scratch — agg/coreset.hpp.  The blocked k-center
  // pass keeps per-row nearest-center state in the n-sized buffers (its
  // column-major distance kernel runs on `colmajor` with `scratch` as the
  // per-round candidate-distance buffer), one bounded farthest-point epoch
  // queue per row block in coreset_cand (strided, counts in
  // coreset_cand_count, -1 marking a queue due for refill, epoch bounds in
  // coreset_qbound), the merged live (distance, id) candidate pairs in
  // coreset_merged, and the selected rows / multiplicity weights in the
  // m-sized buffers; all grow monotonically so the reduction is
  // allocation-free after warmup.
  std::vector<double> coreset_dist;    ///< sq dist to nearest center (n)
  std::vector<int> coreset_assign;     ///< nearest center slot (n)
  std::vector<std::pair<double, int>> coreset_merged;  ///< live candidate pairs
  std::vector<std::pair<double, int>> coreset_qbound;  ///< per-block epoch bounds
  std::vector<int> coreset_cand;       ///< per-block top-(z+1) queues
  std::vector<int> coreset_cand_count; ///< per-block queue sizes (-1: refill)
  std::vector<int> coreset_ids;        ///< selected row ids (m)
  std::vector<double> coreset_weights; ///< multiplicity weights, sum = n (m)
  std::vector<double> coreset_vec;     ///< d-sized scratch (median pivot)
  std::vector<std::pair<double, double>> coreset_pairs;  ///< (value, weight)
  GradientBatch coreset_batch;         ///< m x d packed coreset rows

  // --- fill helpers --------------------------------------------------------
  /// Transposes the batch into `colmajor` (cache-blocked), so per-coordinate
  /// kernels see each column as a contiguous run of n doubles.  The copy is
  /// scratch: kernels may reorder it in place (nth_element).
  void fill_colmajor(const GradientBatch& batch);

  /// Fills `sqnorms` with per-row squared Euclidean norms.
  void fill_sqnorms(const GradientBatch& batch);

  /// Fills `norms` (and `sqnorms`) with per-row Euclidean norms.
  void fill_norms(const GradientBatch& batch);

  /// Fills the packed triangular `pairdist` buffer (or `pairdist_f32` when
  /// the f32 lane is active) with squared Euclidean distances via the Gram
  /// identity ||xi - xj||^2 = ||xi||^2 + ||xj||^2 - 2 <xi, xj>, computing
  /// each unordered pair once.  Shared by Krum, Multi-Krum and Bulyan.
  /// In fast mode on AVX-512 hosts the dot products come from a 4 x 4
  /// register-blocked tile: one pass over a column chunk loads 8 row
  /// vectors for 16 FMAs, where a per-pair kernel loads 2 per FMA.  Each
  /// pair still runs its own fixed sequence of operations, which depends
  /// only on its two rows, so a pair's bits do not depend on the tile, the
  /// slot in the tile or the thread it lands in; edge tiles pad with a
  /// duplicate row whose cells are dropped.  Exact mode keeps its per-pair
  /// scalar kernel.
  void fill_pairwise_sqdist(const GradientBatch& batch);

  /// Demotes the batch rows into `rows_f32` (the f32 lane's one
  /// demote-on-ingest pass).
  void fill_rows_f32(const GradientBatch& batch);

  /// fill_rows_f32 + cache-blocked transpose into `colmajor_f32`.
  void fill_colmajor_f32(const GradientBatch& batch);

  // --- packed triangular pairdist accessors --------------------------------
  /// Index of unordered pair (i, j), i < j, in the packed strictly-upper
  /// triangular layout: row i's run starts after the i prior rows' runs of
  /// lengths n-1, n-2, ..., n-i.
  [[nodiscard]] static constexpr std::size_t pair_index(int i, int j, int n) noexcept {
    // i * (2n - i - 1) is always even, so the division is exact.
    return static_cast<std::size_t>(i) * (2 * static_cast<std::size_t>(n) - i - 1) / 2 +
           static_cast<std::size_t>(j - i - 1);
  }

  /// Squared distance between rows i and j (i != j), read from whichever
  /// pairdist buffer the active lane filled (f32 values are promoted).
  [[nodiscard]] double pair_sqdist(int i, int j, int n) const noexcept {
    if (i > j) std::swap(i, j);
    const std::size_t idx = pair_index(i, j, n);
    return f32_lane() ? static_cast<double>(pairdist_f32[idx]) : pairdist[idx];
  }

  /// Gathers row i of the (logical) n x n distance matrix into dst[0..n),
  /// diagonal 0, promoting f32-lane values.  dst must hold n doubles.
  void gather_pair_row(int i, int n, double* dst) const noexcept;
};

/// Validates the shared batched preconditions (non-empty, equal-dimension by
/// construction, 0 <= f < n); returns the common dimension d.
int validate_batch(const GradientBatch& batch, int f);

/// Ensures `out` has dimension d (reallocates only on dimension change).
void resize_output(Vector& out, int d);

/// Median of [first, last) computed in place via nth_element; matches the
/// sort-based median exactly ((m odd) middle element, (m even) mean of the
/// two middle elements).  Reorders the range.
double median_inplace(double* first, double* last);

/// Runs fn(begin_chunk, end_chunk) over [begin, end) split across up to
/// num_threads std::threads.  num_threads <= 1 (or a tiny range) degenerates
/// to a direct call on the calling thread — that path is allocation-free
/// (the callable is a template parameter, not a std::function).  With
/// num_threads > 1 each call spawns and joins a fresh thread team (tens of
/// microseconds); hot paths should prefer a persistent ThreadPool (see
/// threads.hpp) via AggregatorWorkspace::run_parallel — this spawning
/// fallback remains for ad-hoc workspaces with no pool.  fn must not throw.
template <typename Fn>
void parallel_for(int begin, int end, int num_threads, Fn&& fn) {
  const int range = end - begin;
  if (range <= 0) return;
  const int workers = std::min(num_threads, range);
  if (workers <= 1) {
    fn(begin, end);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  const int chunk = (range + workers - 1) / workers;
  for (int w = 1; w < workers; ++w) {
    const int lo = begin + w * chunk;
    const int hi = std::min(lo + chunk, end);
    if (lo >= hi) break;
    pool.emplace_back([&fn, lo, hi] { fn(lo, hi); });
  }
  fn(begin, std::min(begin + chunk, end));
  for (auto& t : pool) t.join();
}

template <typename Fn>
void AggregatorWorkspace::run_parallel(int begin, int end, Fn&& fn) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, parallel_threads, std::forward<Fn>(fn));
  } else {
    parallel_for(begin, end, parallel_threads, std::forward<Fn>(fn));
  }
}

}  // namespace abft::agg
