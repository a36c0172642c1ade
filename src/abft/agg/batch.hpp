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

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "abft/agg/threads.hpp"
#include "abft/linalg/vector.hpp"

namespace abft::agg {

using linalg::Vector;

/// Numerical contract of the batched kernels.
///
/// `exact` (the default) fixes every kernel's arithmetic: sequential
/// summation in row order, the rule's own selection tie-breaking and
/// convergence schedule, the same bits on every host ISA, at every -O level
/// and at every thread count (the exact goldens; the build never contracts
/// a * b + c, and each fusion a kernel relies on is written as std::fma),
/// within 1e-12 of the naive reference rules in tests/reference_rules.cpp.
/// `fast` relaxes that to *tolerance* parity — kernels may vectorize
/// reductions (independent partial sums), replace full sorts with
/// nth_element-style partial selection, and take runtime-dispatched AVX-512
/// paths.  The (f, eps)-resilience guarantees of the paper only constrain
/// the aggregate, not the arithmetic, so fast mode is semantically safe;
/// its drift is bounded per rule by the tolerance-parity suite in
/// tests/test_agg_fast.cpp (||fast - exact||_inf <= tol(rule, n, d)) and
/// end-to-end by the fast-mode goldens in tests/test_golden_e2e.cpp.  The
/// f64 Gram fill (fill_pairwise_sqdist) does not read the mode: Krum and
/// Multi-Krum in f64, like CWTM and CWMed, give the same bits in both.
enum class AggMode {
  exact,  ///< fixed sequential arithmetic (the default)
  fast,   ///< relaxed parity: vectorized/partial-selection kernels
};

/// Element width of the bandwidth-bound fast-mode kernels.
///
/// `f64` (the default) keeps every kernel on doubles.  `f32` demotes the
/// inputs of one kernel, the Gram fill behind Krum, Multi-Krum and Bulyan
/// stage 1 (fill_pairwise_sqdist, pair_sqdist, gather_pair_row), to float,
/// halving the bytes that memory-bound pass moves.  Every other rule (CWTM,
/// CWMed, GeoMed, GMoM, CClip, Bulyan stage 2, average, CGE, NormClip)
/// ignores the knob: its f32 result is its fast/f64 result bit for bit.  Selection and tie-breaking still run over a deterministic
/// order, and the aggregate itself is accumulated and emitted in f64.  The
/// knob only has effect under AggMode::fast; exact mode ignores it entirely
/// (workspaces reject the combination at the scenario layer).  Like
/// fast/f64, the f32 lane is bit-identical across thread counts: every
/// demoted value and every f32 reduction is computed by exactly one writer
/// in a fixed order.  The Gram fill of both widths runs one operation
/// sequence per pair, on the AVX-512 4 x 4 tile or the per-pair kernel
/// alike (see fill_pairwise_sqdist).
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
  /// is AggMode::exact.
  AggMode mode = AggMode::exact;

  /// Element width of the bandwidth-bound fast-mode kernels (see Precision).
  /// Only consulted when mode == AggMode::fast; exact mode always runs f64.
  Precision precision = Precision::f64;

  /// True when the float32 compute lane is active (fast mode + f32 knob).
  [[nodiscard]] bool f32_lane() const noexcept {
    return mode == AggMode::fast && precision == Precision::f32;
  }

  /// Persistent thread pool every kernel parallel-for dispatches over, at
  /// its full width; nullptr (the default) keeps every kernel
  /// single-threaded.  Drivers share one pool between round-level
  /// parallelism and the kernels (phases are sequential, so the pool is
  /// never re-entered).  Non-owning: the driver owns the pool.
  ThreadPool* pool = nullptr;

  /// Coordinate/pair-level parallel-for width: the pool's, or 1 without one.
  [[nodiscard]] int parallel_width() const noexcept {
    return pool != nullptr ? pool->width() : 1;
  }

  /// Kernel-side parallel dispatch: fn(lo, hi) over a static partition of
  /// [begin, end) on `pool` (see ThreadPool::parallel_for), or one direct
  /// fn(begin, end) call when there is no pool.
  template <typename Fn>
  void run_parallel(int begin, int end, Fn&& fn);

  // --- scratch buffers -----------------------------------------------------
  std::vector<double> colmajor;  ///< d x n transposed copy of the batch
  /// The shard-lane pass's interleaved rows (sqdist_lanes_small_d): its own
  /// buffer, since `colmajor` belongs to CWTM and Bulyan.
  std::vector<double> gram_colmajor;
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
  // Filled only when f32_lane() is active, by the Gram fill: rows_f32 is
  // the demote-on-ingest copy of the batch (n x d, row-major), sqnorms_f32
  // its per-row squared norms (16 lanes per row) and pairdist_f32 the packed
  // triangular distances (same layout as pairdist).
  std::vector<float> rows_f32;      ///< demoted batch rows (n x d)
  std::vector<float> sqnorms_f32;   ///< squared norms of the demoted rows (n)
  std::vector<float> pairdist_f32;  ///< packed triangular distances, f32 lane
  std::vector<int> order;        ///< index permutation (n); Krum lane route: shard order
  std::vector<unsigned char> active;  ///< selection mask (n), Bulyan stage 1
  /// Every active row's Krum candidate distances (krum.hpp
  /// detail::krum_select: live x (live - 1)); the shard-lane route keeps
  /// them per row register, lane t for shard t (8 entries per candidate).
  std::vector<double> krum_cand;
  // Bulyan fast-mode stage 1 (incremental iterated-Krum scores): per-row
  // distance-sorted neighbour ids, their inverse permutation, and the
  // per-row selection-prefix cursor / selected count.
  std::vector<int> sorted_ids;   ///< n x n neighbour ids, ascending distance
  std::vector<int> ranks;        ///< rank of j in i's sorted order (n x n)
  std::vector<int> heads;        ///< one past the selection prefix (n)
  std::vector<int> counts;       ///< selected neighbours in the prefix (n)
  GradientBatch aux_batch;       ///< secondary batch (GMoM buckets, Bulyan)
  GradientBatch row_gather;      ///< aggregate_rows' gathered input rows
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
  std::vector<int> hier_ids;               ///< aggregate_rows' rows in shard order (n)
  int hier_perm_rows = -1;                 ///< n hier_perm was drawn for
  std::uint64_t hier_perm_seed = 0;        ///< seed hier_perm was drawn with

  /// Readies the worker groups a hierarchy level splits `units` items over:
  /// width = max(1, min(parallel_width(), units)) single-threaded
  /// sub-workspaces in hier_groups (this workspace's mode and precision, no
  /// pool: the group IS the parallel unit), with a gather batch and an
  /// output vector each.  Returns the width.
  int shard_groups(int units);

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
  /// Every route clamps a negative distance to 0 but keeps a NaN, and
  /// recomputes by direct difference each pair whose distance is small next
  /// to ||xi||^2 + ||xj||^2 (cancellation) or NaN, so a row with a NaN
  /// coordinate is at distance NaN from every row.
  /// Every pair runs one fixed sequence of operations in both modes, which
  /// depends only on its two rows: per column chunk of 1024, a W-lane FMA
  /// chain (W = 8 doubles or 16 floats) over the whole lane groups, the
  /// leftover summed in k order, then the lanes added to it in lane order
  /// and the chunk's dot added to the cell.  On AVX-512 hosts at d >= 32
  /// the dots come from a 4 x 4 register-blocked tile: one pass over a
  /// column chunk loads 8 row vectors for 16 FMAs, where the per-pair
  /// kernel loads 2 per FMA.  Shorter rows and other hosts run the per-pair
  /// kernel.  Either way a pair's bits do not depend on the tile, the slot
  /// in the tile or the thread it lands in; edge tiles pad with a duplicate
  /// row whose cells are dropped.  The shard-lane pass of a hierarchy's
  /// Krum leaves runs the same per-pair sequence with one shard per lane
  /// (sqdist_lanes_small_d).
  void fill_pairwise_sqdist(const GradientBatch& batch);

  // --- the small-d f64 kernels ---------------------------------------------
  /// Shards per register of the small-d f64 kernels (the lane pass).
  static constexpr int kSmallDLanes = 8;

  /// True when the small-d f64 kernels run for rows of d columns: the f64
  /// lane (either mode), 8 <= d < 32 and AVX-512 at runtime.  Depends only
  /// on d, the precision and the host.
  [[nodiscard]] bool small_d_kernels(int d) const noexcept;

#if defined(__AVX512F__)
  /// The shard-lane small-d pass (the Krum shard route, krum.hpp): `lanes`
  /// (1..8) shards of `rows` rows each, shard t's row i being batch row
  /// ids[t][i].  Interleaves the rows into `gram_colmajor` by 8 x 8
  /// register transposes of row loads (register (i, k) holds coordinate k
  /// of row i of every shard, lane t for shard t; unused lanes hold zeros),
  /// fills `sqnorms` with register i's squared norms
  /// (fill_sqnorms' per-row sum, so its bits), then computes every pair
  /// i < j once per register and stores it as candidate j - 1 of row i and
  /// candidate i of row j: register x of row i (cand[8 (i (rows - 1) + x),
  /// + 8)) holds d(i, x < i ? x : x + 1) of every shard, its candidate
  /// list in ascending j.  Each lane runs the Gram fill's per-pair
  /// operation sequence (see fill_pairwise_sqdist) on its own rows, so
  /// lane t equals the packed cell of shard t's gathered rows bit for bit:
  /// FMA chains over the whole 8-lane groups, the shared scalar
  /// leftover_dot of that lane's two rows, the lane-order sum, the fma and
  /// the clamp, and guard lanes recomputed by the direct difference.  The
  /// one difference: a NaN distance (a row with a NaN coordinate, or two
  /// rows at +inf in one coordinate) is stored as +inf (nan_as_inf), as
  /// krum_select's candidate builder maps it.  Requires small_d_kernels(d);
  /// exists in AVX-512 builds only.
  void sqdist_lanes_small_d(const GradientBatch& batch, const int* const* ids, int lanes,
                            int rows, double* cand);
#endif

  /// Demotes the batch rows into `rows_f32` (the f32 lane's one
  /// demote-on-ingest pass) and sums their squared norms into `sqnorms_f32`
  /// in the same pass.
  void fill_rows_f32(const GradientBatch& batch);

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

/// Grows v to hold `count` doubles from a 64-byte boundary on and returns
/// that boundary, so the register rows of the lane kernels never straddle
/// a cache line.  The offset may move when v grows: use the returned
/// pointer, not v.data().
inline double* aligned_doubles(std::vector<double>& v, std::size_t count) {
  constexpr std::size_t kLine = 64;
  v.resize(count + kLine / sizeof(double) - 1);
  const auto at = reinterpret_cast<std::uintptr_t>(v.data()) % kLine;
  return v.data() + (at == 0 ? 0 : (kLine - at) / sizeof(double));
}

/// Validates the shared batched preconditions (non-empty, equal-dimension by
/// construction, 0 <= f < n); returns the common dimension d.
int validate_batch(const GradientBatch& batch, int f);

/// Ensures `out` has dimension d (reallocates only on dimension change).
void resize_output(Vector& out, int d);

/// Median of [first, last) computed in place via nth_element; matches the
/// sort-based median exactly ((m odd) middle element, (m even) mean of the
/// two middle elements).  Reorders the range.
double median_inplace(double* first, double* last);

template <typename Fn>
void AggregatorWorkspace::run_parallel(int begin, int end, Fn&& fn) {
  if (pool != nullptr) {
    pool->parallel_for(begin, end, pool->width(), std::forward<Fn>(fn));
    return;
  }
  if (begin < end) fn(begin, end);
}

}  // namespace abft::agg
