// RoundEngine — the shared batched round loop under all three
// drivers (server-based DGD, D-SGD, peer-to-peer DGD).
//
// Before this layer each driver re-implemented the same machinery: split a
// master rng into per-agent streams, stand up a persistent ThreadPool and a
// mode-configured AggregatorWorkspace, reshape a payload GradientBatch per
// round, partition honest/faulty rows, compact delivered messages for the
// filter, track eliminations and the shrinking fault bound, and clamp
// f before handing the batch to the gradient filter.  The engine owns all of
// it once; a driver is reduced to its policies — a gradient producer (what
// goes into a payload row), a delivery transport (how a row reaches the
// filter's input), and an update rule (what happens to the estimate).
//
// The part of that machinery which does not depend on how a round closes —
// pool, workspace, fault streams, observer, payload batch, the parallel
// produce loops and the clamped filter call — is the EngineCore
// below, a plain member of both this engine and the event-driven
// AsyncRoundEngine (async_engine.hpp).  The two engines differ only in which
// rows a round produces and how it closes: deliver() here, collect() there.
//
// The engine is also where the scenario axes (axes.hpp) plug in: partial
// participation, straggler schedules and churn are realized by the embedded
// RoundPlanner and applied uniformly to every driver — present/absent agents
// in begin_round, lost-but-not-eliminated messages in deliver(), permanent
// departures with f bookkeeping in the membership list.  With the axes at
// their defaults the engine is bit-identical to the pre-engine round loops
// at every thread count (the golden / determinism / parity suites pin this).
//
// Round lifecycle (server-style drivers call all phases; p2p uses the
// resources, membership and plan queries and runs its own broadcast fan-out
// between produce and update):
//
//   reset(f)                      once per run: fresh agent streams, full
//                                 membership, declared fault bound
//   begin_round(t)                plan perturbations, apply churn, reshape
//                                 the payload batch over present agents
//   emit_honest / emit_faulty     produce phase (parallel over agents); the
//     or emit_present             faulty phase sees the honest rows through
//                                 a HonestRowsView (omniscient adversary)
//   deliver(transport)            delivery phase (serial: transports own
//                                 ordered rng streams): straggled messages
//                                 are lost but keep membership, undelivered
//                                 messages eliminate the sender (step S1).
//                                 Survivors are compacted inside the
//                                 payload batch, which the filter then
//                                 reads: transport(agent, message, dst) gets
//                                 a dst row that is either the message's own
//                                 row (nothing to move) or an earlier,
//                                 already consumed row — it never partly
//                                 overlaps the message (use move_row)
//   aggregate(rule, out)          filter phase: usable f clamped to the
//                                 delivered row count; false when nothing
//                                 was delivered (the driver holds position)
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/agg/batch.hpp"
#include "abft/agg/threads.hpp"
#include "abft/attack/fault.hpp"
#include "abft/engine/axes.hpp"
#include "abft/linalg/vector.hpp"
#include "abft/util/check.hpp"
#include "abft/util/rng.hpp"

namespace abft::engine {

using linalg::Vector;

/// What every engine config carries.
struct EngineCoreConfig {
  /// Seed of the master stream split into per-agent fault streams.
  std::uint64_t seed = 0;
  /// Width of the persistent thread pool (1 = fully single-threaded; results
  /// are bit-identical for every value).
  int threads = 1;
  /// Numerical mode of the engine-owned gradient-filter workspace.
  agg::AggMode mode = agg::AggMode::exact;
  /// Compute precision of the workspace's fast lane (f32 demotes the
  /// bandwidth-bound kernel inputs; only meaningful under AggMode::fast).
  agg::Precision precision = agg::Precision::f64;
};

struct RoundEngineConfig : EngineCoreConfig {
  /// Round-perturbation axes (defaults = plain run, bit-identical).
  ScenarioAxes axes;
};

/// Called after the filter phase with (round, estimate, filtered gradient),
/// before the driver applies its update rule.
using RoundObserver = std::function<void(int round, const Vector& estimate, const Vector& filtered)>;

/// The one clamp policy for every driver's filter phase: the fault bound to
/// aggregate `kept` delivered rows with, or -1 when the round must hold
/// position (nothing delivered, or the rule cannot run that thin).  A
/// declared f the rule could not support even on the full `roster_n`
/// (above its max, or below its minimum) is a misconfiguration, not a thin
/// round: it gets the legacy min(current_f, kept - 1) clamp so the rule's
/// own precondition still fails loudly where it always did.
///
/// `members_n` is the CURRENT membership size (after churn/elimination has
/// permanently shrunk the roster), while `roster_n` stays the size the run
/// was configured with — the misconfiguration check is judged against
/// `roster_n` because a config valid at reset never becomes "misconfigured"
/// later.  But once the surviving membership itself can no longer tolerate
/// the `current_f` adversaries known to remain
/// (current_f > rule.max_usable_f(members_n)), no clamp is sound: running
/// the filter with a weaker budget than the adversary count would hand the
/// round to the faulty agents, so the engine holds position instead.  A
/// merely thin round (kept < members_n from stragglers or sit-outs) still
/// takes the kept-row clamp below.
int usable_fault_bound(const agg::GradientAggregator& rule, int declared_f, int current_f,
                       int kept, int members_n, int roster_n);

/// Moves a delivered message into its destination row.  `dst` may be the
/// message's own row (the sync engine compacts survivors in place), in which
/// case there is nothing to move, but never partly overlaps it.
inline void move_row(std::span<const double> message, std::span<double> dst) {
  if (message.data() != dst.data()) std::copy(message.begin(), message.end(), dst.begin());
}

/// Refills `streams` with `count` independent streams split off a master
/// seeded with `seed` — one per agent, so behaviour is invariant to roster
/// order and to the thread count (each agent owns its stream outright).
void split_streams(std::uint64_t seed, std::size_t count, std::vector<util::Rng>& streams);

/// What both engines share, written once.  The produce loops take the row
/// list of the phase plus an `agent_of(row)` map, so the core never needs to
/// know whether payload rows are compacted per round (RoundEngine) or
/// indexed by agent (AsyncRoundEngine).
struct EngineCore {
  /// `faulty[i]` marks roster slot i Byzantine.  Throws std::invalid_argument
  /// on an empty roster or a non-positive dimension.
  EngineCore(std::vector<unsigned char> faulty_mask, int row_dim, const EngineCoreConfig& config);

  [[nodiscard]] int roster_size() const noexcept { return static_cast<int>(faulty.size()); }

  void notify(int round, const Vector& estimate, const Vector& filtered) const {
    if (observer) observer(round, estimate, filtered);
  }

  /// Dispatch over [0, count) at the configured width.  ThreadPool(1) spawns
  /// no workers and degenerates to a direct call, so there is no serial
  /// branch anywhere.
  template <typename Fn>
  void parallel(int count, Fn&& fn) {
    pool->parallel_for(0, count, threads, std::forward<Fn>(fn));
  }

  /// Produce phase, honest agents: writer(agent_of(row), payload row) for
  /// every row of `rows` (parallel; each agent owns its row and stream).
  template <typename AgentOf, typename Writer>
  void emit_honest(std::span<const int> rows, AgentOf agent_of, Writer& writer) {
    parallel(static_cast<int>(rows.size()), [&](int begin, int end) {
      for (int k = begin; k < end; ++k) {
        const int row = rows[static_cast<std::size_t>(k)];
        writer(agent_of(row), payload.row(row));
      }
    });
  }

  /// Produce phase, Byzantine agents, after emit_honest so the omniscient
  /// view over the `honest` rows is complete: emitter(agent, row, view)
  /// mutates the row in place, and silence(row) runs for every emitter that
  /// returned false.
  template <typename AgentOf, typename Emitter, typename Silence>
  void emit_faulty(std::span<const int> rows, std::span<const int> honest, AgentOf agent_of,
                   Emitter& emitter, Silence silence) {
    const attack::HonestRowsView view{payload.data(), dim, honest};
    parallel(static_cast<int>(rows.size()), [&](int begin, int end) {
      for (int k = begin; k < end; ++k) {
        const int row = rows[static_cast<std::size_t>(k)];
        if (!emitter(agent_of(row), payload.row(row), view)) silence(row);
      }
    });
  }

  /// Filter phase over the `kept` rows of `rows` under usable_fault_bound
  /// (judged against the configured roster).  Returns false, `out`
  /// untouched, when the round must hold position.
  bool aggregate(const agg::GradientAggregator& rule, const agg::GradientBatch& rows,
                 int declared_f, int current_f, int kept, int members_n, Vector& out);

  std::vector<unsigned char> faulty;
  int dim = 0;
  std::uint64_t seed = 0;
  int threads = 1;
  std::unique_ptr<agg::ThreadPool> pool;
  agg::AggregatorWorkspace workspace;
  /// Per-agent fault streams (refilled by split_streams at every reset).
  std::vector<util::Rng> agent_rng;
  RoundObserver observer;
  agg::GradientBatch payload;
};

class RoundEngine {
 public:
  /// `faulty[i]` marks roster slot i Byzantine (used to partition the
  /// produce phase and to shrink f when a faulty agent churns out).
  RoundEngine(std::vector<unsigned char> faulty, int dim, RoundEngineConfig config);

  // --- shared resources ----------------------------------------------------
  [[nodiscard]] util::Rng& agent_rng(int agent) noexcept {
    return core_.agent_rng[static_cast<std::size_t>(agent)];
  }

  void set_observer(RoundObserver observer) { core_.observer = std::move(observer); }
  void notify(int round, const Vector& estimate, const Vector& filtered) const {
    core_.notify(round, estimate, filtered);
  }

  /// Engine-level parallel dispatch over [0, count) at the configured width.
  template <typename Fn>
  void parallel(int count, Fn&& fn) {
    core_.parallel(count, std::forward<Fn>(fn));
  }

  // --- membership & fault-bound bookkeeping --------------------------------
  /// Restarts a run: full membership, declared fault bound f, fresh
  /// per-agent rng streams (master split, as every driver did), fresh
  /// perturbation stream.  The driver's own transport state (e.g. the
  /// network's drop stream) is deliberately not engine-owned.
  void reset(int declared_f);

  /// Agents still in the system, in roster order.
  [[nodiscard]] std::span<const int> members() const noexcept { return members_; }
  [[nodiscard]] bool is_member(int agent) const noexcept {
    return member_mask_[static_cast<std::size_t>(agent)] != 0;
  }
  /// The declared fault bound, shrunk by eliminations and faulty churn.
  [[nodiscard]] int current_f() const noexcept { return current_f_; }
  /// Agents eliminated by step S1 (undelivered non-straggler messages).
  [[nodiscard]] int eliminated_count() const noexcept { return eliminated_; }
  /// Agents that left via churn.
  [[nodiscard]] int departed_count() const noexcept { return departed_; }

  // --- round lifecycle -----------------------------------------------------
  /// Applies due churn, draws this round's plan, reshapes the payload batch
  /// over the present agents and partitions their rows honest/faulty.
  void begin_round(int round);

  /// Whether a member participates this round.
  [[nodiscard]] bool is_present(int agent) const noexcept {
    return payload_row_[static_cast<std::size_t>(agent)] >= 0;
  }
  /// Whether a present agent's message misses this round's close.
  [[nodiscard]] bool straggles(int agent) const noexcept { return planner_.straggles(agent); }

  /// The filter's input rows: after deliver(), the delivered messages,
  /// compacted in roster order at the front of the payload batch.
  [[nodiscard]] agg::GradientBatch& ingest() noexcept { return core_.payload; }

  /// Produce phase, honest agents: writer(agent, row) fills the agent's
  /// payload row (parallel over agents; each owns its row and rng stream).
  template <typename Writer>
  void emit_honest(Writer&& writer) {
    ensure_payload();
    core_.emit_honest(honest_rows_, agent_of_row(), writer);
  }

  /// Produce phase, Byzantine agents (after emit_honest, so the view is
  /// complete): emitter(agent, row, honest_view) mutates the row in place
  /// and returns false to stay silent.
  template <typename Emitter>
  void emit_faulty(Emitter&& emitter) {
    ensure_payload();
    core_.emit_faulty(faulty_rows_, honest_rows_, agent_of_row(), emitter,
                      [this](int row) { silent_[static_cast<std::size_t>(row)] = 1; });
  }

  /// Produce phase without an honest/faulty split (D-SGD: faults are data-
  /// or gradient-level): writer(agent, row) runs for every present agent.
  template <typename Writer>
  void emit_present(Writer&& writer) {
    ensure_payload();
    core_.parallel(static_cast<int>(present_.size()), [this, &writer](int begin, int end) {
      for (int row = begin; row < end; ++row) {
        writer(present_[static_cast<std::size_t>(row)], core_.payload.row(row));
      }
    });
  }

  /// Delivery phase (serial: transports own ordered streams).  For each
  /// present agent in roster order: a straggled message is lost but keeps
  /// membership; otherwise transport(agent, message, dst) moves the message
  /// (empty when the agent stayed silent) into the next kept row and
  /// returning false eliminates the sender (step S1: silent => faulty;
  /// shrinks n and f).  The kept rows are compacted in place: kept row
  /// `kept` is payload row `kept` <= `row`, so dst is either the message's
  /// own row or an earlier row whose message was already handled, and
  /// nothing moves while no message is lost.  Once per round (it consumes
  /// the payload).  Returns the number of rows kept.
  template <typename Transport>
  int deliver(Transport&& transport) {
    ensure_payload();
    const int present = static_cast<int>(present_.size());
    int kept = 0;
    for (int row = 0; row < present; ++row) {
      const int agent = present_[static_cast<std::size_t>(row)];
      if (planner_.straggles(agent)) continue;
      std::span<const double> message;
      if (silent_[static_cast<std::size_t>(row)] == 0) message = core_.payload.row(row);
      if (transport(agent, message, core_.payload.row(kept))) {
        ++kept;
      } else {
        eliminate(agent);
      }
    }
    core_.payload.truncate_rows(kept);
    ABFT_REQUIRE(!members_.empty(), "every agent was eliminated");
    kept_ = kept;
    return kept;
  }

  /// Filter phase over the delivered rows: the usable fault bound is
  /// min(current_f, kept - 1, rule.max_usable_f(kept)) clamped at 0, so a
  /// thin round aggregates with the strongest f the rule tolerates.
  /// Returns false (out untouched) when no rows were delivered, the rule
  /// cannot run on them at all, or the surviving membership can no longer
  /// tolerate current_f adversaries (see usable_fault_bound) — the driver
  /// holds position that round.  A declared f the rule could not support
  /// even on the full roster is a misconfiguration and is NOT clamped: the
  /// rule's own precondition throws, as it always did.
  bool aggregate(const agg::GradientAggregator& rule, Vector& out) {
    return core_.aggregate(rule, core_.payload, declared_f_, current_f_, kept_,
                           static_cast<int>(members_.size()), out);
  }

 private:
  /// Payload row k belongs to present_[k].
  [[nodiscard]] auto agent_of_row() const noexcept {
    return [this](int row) { return present_[static_cast<std::size_t>(row)]; };
  }
  void ensure_payload();
  void eliminate(int agent);
  void depart(int agent);
  void remove_member(int agent);

  EngineCore core_;
  RoundPlanner planner_;

  std::vector<int> members_;
  std::vector<unsigned char> member_mask_;
  int declared_f_ = 0;
  int current_f_ = 0;
  int eliminated_ = 0;
  int departed_ = 0;

  std::vector<int> present_;
  std::vector<int> payload_row_;
  std::vector<int> honest_rows_;
  std::vector<int> faulty_rows_;
  std::vector<unsigned char> silent_;
  bool payload_shaped_ = false;
  int kept_ = 0;
};

}  // namespace abft::engine
