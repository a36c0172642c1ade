// Event-driven counterpart of the RoundEngine: a deterministic virtual-clock
// loop in which agents take a random (seeded, per-agent-stream) amount of
// virtual time to compute each gradient.  The filter fires on a
// quorum-or-deadline trigger:
//
//   * the round window t covers virtual time [t*D, (t+1)*D) with D =
//     `deadline`; an idle agent starts computing at the window open, against
//     the CURRENT estimate x_t (so a slow agent's row is a stale gradient by
//     construction);
//   * if at least `quorum` in-flight rows have arrived inside the window, the
//     filter fires at the quorum-th arrival time and aggregates every row
//     arrived by then (quorum 0 = the full roster); otherwise it fires at
//     the window close with whatever arrived — nothing blocks.  The window
//     is genuinely half-open: a row arriving exactly at (t+1)*D belongs to
//     window t+1 — it neither counts toward round t's quorum nor is
//     consumed by round t's deadline fire;
//   * a consumed row of age a = round - birth_round enters the batch scaled
//     by the staleness weight 1/(1+a) (age 0 rows are bit-identical to the
//     unscaled row); un-consumed rows stay in flight for later rounds;
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
// Because of the one-row-in-flight rule the whole in-flight set is three
// per-agent arrays — computing_, birth_round_, arrival_time_ — and payload
// row i is agent i's row.  begin_round fixes every birth round and arrival
// time serially; the parallel produce phase only fills payload rows (and a
// silent Byzantine agent clears its own computing_ slot).  collect() scans
// the agents in roster order, finds the quorum time inside the one arrival
// bucket that holds it, and lists the consumed row ids in (birth_round,
// agent) order with one counting pass by age.  The consumed rows never
// leave the payload: a late row is scaled there, and the filter reads the
// rows through that id list (GradientAggregator::aggregate_rows).
//
// Determinism contract: arrivals are ordered by the virtual clock — seeded
// per-agent arrival streams, never wall time — and nothing the thread
// schedule decides reaches the numerics, so traces are bit-identical at
// every thread count and across repeated runs.  With quorum = n,
// staleness_cap = 0 and an arrival model whose durations never exceed the
// deadline, every round consumes exactly the full fresh batch in roster
// order and the mode reproduces the synchronous engine's exact trace.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/batch.hpp"
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
  /// Maximum age (in rounds) an in-flight row may reach before it is dropped.
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

/// The seed also feeds, xor-tagged, the per-agent arrival-time streams; the
/// fault streams use the synchronous engine's derivation, so traces can
/// match exactly.
struct AsyncEngineConfig : EngineCoreConfig {
  AsyncConfig async;
};

class AsyncRoundEngine {
 public:
  /// Throws std::invalid_argument on an empty roster, non-positive dim, or
  /// an invalid AsyncConfig (negative quorum/staleness_cap, non-positive
  /// deadline/scale, unknown arrival kind).
  AsyncRoundEngine(std::vector<unsigned char> faulty, int dim, AsyncEngineConfig config);

  [[nodiscard]] int roster_size() const noexcept { return core_.roster_size(); }
  [[nodiscard]] util::Rng& agent_rng(int agent) noexcept {
    return core_.agent_rng[static_cast<std::size_t>(agent)];
  }

  void set_observer(RoundObserver observer) { core_.observer = std::move(observer); }
  void notify(int round, const Vector& estimate, const Vector& filtered) const {
    core_.notify(round, estimate, filtered);
  }

  /// Starts a run, the first one included: every agent idle, zeroed stats,
  /// fresh per-agent fault and arrival streams (agent_rng is valid from
  /// here on).
  void reset(int declared_f);

  /// Opens round window t, in roster order: drops in-flight rows past the
  /// staleness cap and starts every idle agent computing (drawing its
  /// virtual duration).
  void begin_round(int round);

  /// Agents that began computing this round, in roster order (their payload
  /// rows are about to be written; row index == agent id).
  [[nodiscard]] std::span<const int> starting_agents() const noexcept { return starting_; }

  /// Produce phase, honest starters: writer(agent, row) fills the agent's
  /// payload row.
  template <typename Writer>
  void emit_honest(Writer&& writer) {
    core_.emit_honest(starting_honest_, [](int agent) { return agent; }, writer);
  }

  /// Produce phase, Byzantine starters (after emit_honest, so the view is
  /// complete): emitter(agent, row, honest_view) mutates the row in place;
  /// returning false keeps the agent silent — it goes idle, is never
  /// consumed, and simply starts over next round (never eliminated: see
  /// header).
  template <typename Emitter>
  void emit_faulty(Emitter&& emitter) {
    core_.emit_faulty(starting_faulty_, starting_honest_, [](int agent) { return agent; },
                      emitter,
                      [this](int agent) { computing_[static_cast<std::size_t>(agent)] = 0; });
  }

  /// Trigger + consume phase: fires on quorum-or-deadline and consumes
  /// every row arrived by the fire time, in (birth_round, agent) order,
  /// scaling each in place by its staleness weight.  Returns the number of
  /// rows kept (0 = hold position).
  int collect(int round);

  /// Filter phase over the consumed rows, under the same usable_fault_bound
  /// policy as the synchronous engine (membership never shrinks, so the
  /// declared f stays the current f).  Returns false to hold position.
  bool aggregate(const agg::GradientAggregator& rule, Vector& out) {
    return core_.aggregate(rule, core_.payload, consumed(), declared_f_, declared_f_, kept_,
                           roster_size(), out);
  }

  /// The payload rows (row i is agent i's) the last collect consumed, in
  /// the filter's order.
  [[nodiscard]] std::span<const int> consumed() const noexcept {
    return {consumed_.data(), static_cast<std::size_t>(kept_)};
  }
  /// Filter input row k: consumed()[k]'s staleness-weighted row.
  [[nodiscard]] std::span<const double> consumed_row(int k) const noexcept {
    return core_.payload.row(consumed_[static_cast<std::size_t>(k)]);
  }
  [[nodiscard]] const AsyncStats& stats() const noexcept { return stats_; }

 private:
  /// ArrivalModel::kind, parsed once at construction.
  enum class ArrivalKind : unsigned char { uniform, exponential, fixed };

  [[nodiscard]] double draw_duration(int agent);

  /// Arrival buckets of collect's quorum search.
  static constexpr int kFireBuckets = 1024;

  /// core_.payload is a persistent n x d batch: row i is agent i's
  /// in-flight gradient.  Rows stay in flight across rounds, so the filter
  /// reads the consumed ones where they are rather than from rows
  /// compacted in place as the synchronous engine does.
  EngineCore core_;
  AsyncConfig config_;
  ArrivalKind arrival_kind_ = ArrivalKind::uniform;
  std::vector<util::Rng> arrival_rng_;  // virtual compute-time streams

  int declared_f_ = 0;
  int kept_ = 0;
  AsyncStats stats_;

  /// Per agent: 1 while a row is in flight, 0 when idle; the in-flight row's
  /// birth round and virtual arrival time.
  std::vector<unsigned char> computing_;
  std::vector<int> birth_round_;
  std::vector<double> arrival_time_;

  // Scratch of collect's branch-free scans, sized once per run; each scan's
  // local count says how many entries are live.
  std::vector<int> arrived_;           // this window's arrivals, then those due
  std::vector<double> arrived_times_;  // their arrival times
  std::vector<int> consumed_;          // the rows consumed, in order
  std::array<int, kFireBuckets> fire_buckets_{};  // arrivals per bucket
  std::vector<int> age_rows_;          // due rows per age, then their offsets

  std::vector<int> starting_;
  std::vector<int> starting_honest_;
  std::vector<int> starting_faulty_;
};

}  // namespace abft::engine
