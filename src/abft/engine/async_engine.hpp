// Event-driven counterpart of the RoundEngine: a deterministic virtual-clock
// loop in which agents take a random (seeded, per-agent-stream) amount of
// virtual time to compute each gradient and push the finished row into a
// bounded MPSC ring.  The filter fires on a quorum-or-deadline trigger:
//
//   * the round window t covers virtual time [t*D, (t+1)*D) with D =
//     `deadline`; an idle agent starts computing at the window open, against
//     the CURRENT estimate x_t (so a slow agent's row is a stale gradient by
//     construction);
//   * if at least `quorum` pending rows have arrived inside the window, the
//     filter fires at the quorum-th arrival time and aggregates every row
//     arrived by then (quorum 0 = the full roster); otherwise it fires at
//     the window close with whatever arrived — nothing blocks.  The window
//     is genuinely half-open: a row arriving exactly at (t+1)*D belongs to
//     window t+1 — it neither counts toward round t's quorum nor is
//     consumed by round t's deadline fire;
//   * a consumed row of age a = round - birth_round enters the batch scaled
//     by the staleness weight 1/(1+a) (age 0 rows are bit-identical to the
//     unscaled row); un-consumed rows stay pending for later rounds;
//   * rows STRICTLY older than `staleness_cap` rounds are dropped at the
//     window open and the agent starts afresh: at exactly age ==
//     staleness_cap the row is kept and consumable at weight
//     1/(1 + staleness_cap);
//   * an agent has at most one row in flight (it only starts computing once
//     its previous row is consumed or dropped), so one filter call can never
//     ingest two rows from the same agent.
//
// Unlike the synchronous engine there is NO step-S1 elimination: a missing
// reply is indistinguishable from slowness without a synchronous close, so
// silence costs the adversary a round of presence instead of its membership,
// and the membership never shrinks.
//
// Determinism contract: arrivals are ordered by the virtual clock — seeded
// per-agent arrival streams, never wall time — and the ring is drained and
// re-sorted after the parallel produce phase joins, so traces are
// bit-identical at every thread count and across repeated runs.  With
// quorum = n, staleness_cap = 0 and an arrival model whose durations never
// exceed the deadline, every round consumes exactly the full fresh batch in
// roster order and the mode reproduces the synchronous engine's exact trace.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/batch.hpp"
#include "abft/agg/threads.hpp"
#include "abft/attack/fault.hpp"
#include "abft/engine/mpsc_ring.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/util/rng.hpp"

namespace abft::engine {

/// Per-agent virtual compute-time model.
struct ArrivalModel {
  /// "uniform": duration = scale * (0.5 + U[0,1)) in [0.5*scale, 1.5*scale);
  /// "exponential": duration = scale * Exp(1) (mean scale, unbounded tail);
  /// "fixed": duration = scale exactly, consuming no randomness — the
  /// deterministic model for pinning window-boundary and staleness
  /// arithmetic in tests.
  std::string kind = "uniform";
  double scale = 0.5;
};

struct AsyncConfig {
  /// Rows that fire the filter early; 0 means the full roster.  Values above
  /// the roster size clamp to it.
  int quorum = 0;
  /// Virtual-time length D of one round window (> 0).
  double deadline = 1.0;
  /// Maximum age (in rounds) a pending row may reach before it is dropped.
  int staleness_cap = 0;
  ArrivalModel arrival;
};

/// Trigger/staleness counters accumulated over a run (reset() zeroes them).
struct AsyncStats {
  long long quorum_fires = 0;    ///< rounds fired by the quorum arriving early
  long long deadline_fires = 0;  ///< rounds fired by the window close
  long long stale_dropped = 0;   ///< pending rows dropped past staleness_cap
  long long late_rows = 0;       ///< aggregated rows with age >= 1
};

struct AsyncEngineConfig {
  /// Seed of the master stream split into per-agent fault streams (same
  /// derivation as the synchronous engine, so traces can match exactly) and,
  /// xor-tagged, into per-agent arrival-time streams.
  std::uint64_t seed = 0;
  int threads = 1;
  agg::AggMode mode = agg::AggMode::exact;
  /// Compute precision of the workspace's fast lane (f32 demotes the
  /// bandwidth-bound kernel inputs; only meaningful under AggMode::fast).
  agg::Precision precision = agg::Precision::f64;
  AsyncConfig async;
};

class AsyncRoundEngine {
 public:
  /// Throws std::invalid_argument on an empty roster, non-positive dim, or
  /// an invalid AsyncConfig (negative quorum/staleness_cap, non-positive
  /// deadline/scale, unknown arrival kind).
  AsyncRoundEngine(std::vector<unsigned char> faulty, int dim, AsyncEngineConfig config);

  [[nodiscard]] int roster_size() const noexcept { return static_cast<int>(faulty_.size()); }
  [[nodiscard]] int dim() const noexcept { return dim_; }
  [[nodiscard]] int threads() const noexcept { return threads_; }
  [[nodiscard]] util::Rng& agent_rng(int agent) noexcept {
    return agent_rng_[static_cast<std::size_t>(agent)];
  }

  void set_observer(RoundObserver observer) { observer_ = std::move(observer); }
  void notify(int round, const Vector& estimate, const Vector& filtered) const {
    if (observer_) observer_(round, estimate, filtered);
  }

  /// Restarts a run: every agent idle, empty stream, zeroed stats, fresh
  /// per-agent fault and arrival streams.
  void reset(int declared_f);

  /// Opens round window t: drops pending rows past the staleness cap and
  /// starts every idle agent computing (drawing its virtual duration).
  void begin_round(int round);

  /// Agents that began computing this round, in roster order (their payload
  /// rows are about to be written; row index == agent id).
  [[nodiscard]] std::span<const int> starting_agents() const noexcept { return starting_; }
  [[nodiscard]] std::span<const int> starting_honest() const noexcept {
    return starting_honest_;
  }
  [[nodiscard]] std::span<const int> starting_faulty() const noexcept {
    return starting_faulty_;
  }

  /// The omniscient adversary's view: the honest rows being computed this
  /// round (complete once emit_honest has run).
  [[nodiscard]] attack::HonestRowsView honest_view() const noexcept {
    return {payload_.data(), dim_, starting_honest_};
  }

  /// Produce phase, honest starters: writer(agent, row) fills the agent's
  /// payload row; the finished row is pushed into the ring concurrently.
  template <typename Writer>
  void emit_honest(Writer&& writer) {
    pool_->parallel_for(0, static_cast<int>(starting_honest_.size()), threads_,
                        [this, &writer](int begin, int end) {
                          for (int k = begin; k < end; ++k) {
                            const int agent = starting_honest_[static_cast<std::size_t>(k)];
                            writer(agent, payload_.row(agent));
                            push_row(agent);
                          }
                        });
  }

  /// Produce phase, Byzantine starters (after emit_honest, so the view is
  /// complete): emitter(agent, row, honest_view) mutates the row in place;
  /// returning false keeps the agent silent — nothing enters the stream and
  /// it simply starts over next round (never eliminated: see header).
  template <typename Emitter>
  void emit_faulty(Emitter&& emitter) {
    const attack::HonestRowsView view = honest_view();
    pool_->parallel_for(0, static_cast<int>(starting_faulty_.size()), threads_,
                        [this, &emitter, &view](int begin, int end) {
                          for (int k = begin; k < end; ++k) {
                            const int agent = starting_faulty_[static_cast<std::size_t>(k)];
                            if (emitter(agent, payload_.row(agent), view)) {
                              push_row(agent);
                            } else {
                              computing_[static_cast<std::size_t>(agent)] = 0;
                            }
                          }
                        });
  }

  /// Trigger + consume phase: drains the ring, fires on quorum-or-deadline,
  /// and copies every row arrived by the fire time into the ingest batch in
  /// (birth_round, agent) order, scaled by its staleness weight.  Returns
  /// the number of rows kept (0 = hold position).
  int collect(int round);

  /// Rows the last collect() kept.
  [[nodiscard]] int last_kept() const noexcept { return kept_; }

  /// Filter phase over the ingest batch, under the same usable_fault_bound
  /// policy as the synchronous engine (membership never shrinks, so the
  /// declared f stays the current f).  Returns false to hold position.
  bool aggregate(const agg::GradientAggregator& rule, Vector& out);

  [[nodiscard]] agg::GradientBatch& ingest() noexcept { return ingest_; }
  [[nodiscard]] const AsyncStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const AsyncConfig& async_config() const noexcept { return config_.async; }

 private:
  /// A finished gradient travelling through the ring / pending set.
  struct PendingRow {
    int agent = 0;
    int birth_round = 0;
    double arrival_time = 0.0;
  };

  /// ArrivalModel::kind, parsed once at construction.
  enum class ArrivalKind : unsigned char { uniform, exponential, fixed };

  void push_row(int agent);
  [[nodiscard]] double draw_duration(int agent);

  std::vector<unsigned char> faulty_;
  int dim_ = 0;
  AsyncEngineConfig config_;
  ArrivalKind arrival_kind_ = ArrivalKind::uniform;
  int threads_ = 1;
  std::unique_ptr<agg::ThreadPool> pool_;
  agg::AggregatorWorkspace workspace_;
  std::vector<util::Rng> agent_rng_;    // fault streams (parity with sync)
  std::vector<util::Rng> arrival_rng_;  // virtual compute-time streams
  RoundObserver observer_;

  int declared_f_ = 0;
  int round_ = 0;
  int kept_ = 0;
  AsyncStats stats_;

  /// Persistent n x d payload: row i is agent i's in-flight gradient (an
  /// agent has at most one row outstanding, so slots never collide).
  agg::GradientBatch payload_;
  agg::GradientBatch ingest_;
  /// 1 while the agent has a row in flight or pending, 0 when idle.
  std::vector<unsigned char> computing_;
  std::vector<double> arrival_time_;

  MpscRing<PendingRow> ring_;
  std::vector<PendingRow> pending_;  // drained + deterministically ordered
  std::vector<PendingRow> arrived_;  // scratch: this window's candidates

  std::vector<int> starting_;
  std::vector<int> starting_honest_;
  std::vector<int> starting_faulty_;
};

}  // namespace abft::engine
