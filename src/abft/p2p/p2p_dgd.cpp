#include "abft/p2p/p2p_dgd.hpp"

#include <algorithm>
#include <functional>

#include "abft/engine/round_engine.hpp"
#include "abft/p2p/dolev_strong.hpp"
#include "abft/util/check.hpp"

namespace abft::p2p {

namespace {

/// The transport-independent round structure: a broadcast function runs one
/// Byzantine broadcast from `source` holding `value` and hands node i's
/// decided value to sink(i, source, decided); it returns the message count.
/// The sink writes straight into the receiving node's decision-batch row
/// (row = the source's delivery slot of the round), so the round loop never
/// stages messages in vectors.
using DecisionSink =
    std::function<void(int node, int source, std::span<const double> decided)>;
using BroadcastFn = std::function<long(int source, std::span<const double> value, int round,
                                       const DecisionSink& sink)>;

P2pDgdResult run_p2p_core(const std::vector<sim::AgentSpec>& roster, const P2pDgdConfig& config,
                          const agg::GradientAggregator& aggregator,
                          const BroadcastFn& broadcast) {
  const int n = static_cast<int>(roster.size());
  ABFT_REQUIRE(n > 0, "p2p run needs at least one agent");
  ABFT_REQUIRE(config.schedule != nullptr, "p2p run needs a step schedule");
  ABFT_REQUIRE(config.iterations >= 0, "iterations must be non-negative");
  ABFT_REQUIRE(config.x0.dim() == config.box.dim(), "x0/box dimension mismatch");

  const int dim = config.box.dim();
  // Shared round machinery: per-agent rng streams, the pool, membership /
  // fault-bound bookkeeping and the scenario plan.  The p2p-specific
  // broadcast fan-out and per-node filter state stay in this driver.
  engine::RoundEngine eng(sim::faulty_mask(roster), dim,
                          engine::RoundEngineConfig{{config.seed, config.agg_threads,
                                                    config.agg_mode, config.agg_precision},
                                                    config.axes});
  eng.reset(config.f);

  P2pDgdResult result;
  std::vector<int> honest_slot(roster.size(), -1);
  for (int i = 0; i < n; ++i) {
    if (roster[static_cast<std::size_t>(i)].is_honest()) {
      honest_slot[static_cast<std::size_t>(i)] = static_cast<int>(result.honest_nodes.size());
      result.honest_nodes.push_back(i);
    }
  }
  const int h = static_cast<int>(result.honest_nodes.size());
  ABFT_REQUIRE(h > 0, "p2p run needs at least one honest agent");

  // Per-honest-node estimates (they stay in lockstep; keeping them separate
  // is the point — the tests verify agreement rather than assume it).
  std::vector<linalg::Vector> estimates(static_cast<std::size_t>(h),
                                        config.box.project(config.x0));
  result.traces.resize(static_cast<std::size_t>(h));
  for (std::size_t k = 0; k < result.traces.size(); ++k) {
    result.traces[k].estimates.push_back(estimates[k]);
  }

  // Persistent double-buffered round state.  honest_batch holds the honest
  // gradients of the round (row k = honest node k) — the source values for
  // honest broadcasters and the omniscient adversary's view.  source_batch
  // holds the values faulty sources inject.  Each honest node owns a
  // decision batch (row s = the value the round's s-th delivered source
  // decided on that node) plus its own filter workspace and output, so the
  // per-node filter loop parallelizes with zero sharing; the per-node
  // aggregation itself is a pure function of the decided multiset, so
  // traces are bit-identical at every thread count.
  agg::GradientBatch honest_batch(h, dim);
  // Faulty sources stage their injected value in a row of their own; honest
  // sources broadcast straight from their honest_batch row, so the staging
  // batch only needs one row per faulty node.
  std::vector<int> faulty_slot(roster.size(), -1);
  int num_faulty = 0;
  for (int i = 0; i < n; ++i) {
    if (!roster[static_cast<std::size_t>(i)].is_honest()) {
      faulty_slot[static_cast<std::size_t>(i)] = num_faulty++;
    }
  }
  agg::GradientBatch source_batch(std::max(1, num_faulty), dim);
  std::vector<agg::GradientBatch> node_batches(static_cast<std::size_t>(h));
  std::vector<agg::AggregatorWorkspace> node_workspaces(static_cast<std::size_t>(h));
  std::vector<linalg::Vector> node_filtered(static_cast<std::size_t>(h));
  for (auto& node_ws : node_workspaces) {
    node_ws.mode = config.agg_mode;
    node_ws.precision = config.agg_precision;
  }
  for (auto& batch : node_batches) batch.reshape(n, dim);
  std::vector<long> source_messages(static_cast<std::size_t>(n), 0);

  // Per-round rosters.  round_honest holds the honest slots computing this
  // round (the omniscient adversary's view indexes honest_batch by these
  // rows — identity when every axis is off); round_faulty the present
  // faulty sources (they pick their message whether or not it straggles);
  // sources holds the delivered broadcasters of the round, and source_slot
  // their decision-batch rows.
  std::vector<int> round_honest;
  round_honest.reserve(static_cast<std::size_t>(h));
  std::vector<int> round_faulty;
  round_faulty.reserve(roster.size());
  std::vector<int> sources;
  sources.reserve(roster.size());
  std::vector<int> source_slot(roster.size(), -1);

  for (int t = 0; t < config.iterations; ++t) {
    eng.begin_round(t);

    // Phase 1: honest gradients, computed on each present honest node's own
    // estimate and written straight into the honest batch rows (parallel
    // over nodes).  A straggling node still computes (its message is late,
    // not missing); a non-participating node skips the round entirely.
    round_honest.clear();
    for (int k = 0; k < h; ++k) {
      if (eng.is_present(result.honest_nodes[static_cast<std::size_t>(k)])) {
        round_honest.push_back(k);
      }
    }
    eng.parallel(static_cast<int>(round_honest.size()), [&](int begin, int end) {
      for (int u = begin; u < end; ++u) {
        const int k = round_honest[static_cast<std::size_t>(u)];
        const auto& spec =
            roster[static_cast<std::size_t>(result.honest_nodes[static_cast<std::size_t>(k)])];
        spec.cost->gradient_into(estimates[static_cast<std::size_t>(k)], honest_batch.row(k));
      }
    });
    // Identity row indices when all axes are off: HonestRowsView is always
    // index-based (see fault.hpp on why a dense fast path would break bit
    // parity between drivers).
    const attack::HonestRowsView honest_view(honest_batch.data(), dim, round_honest);

    // Delivered broadcasters of the round: present members whose message
    // makes the round's close.  Slot s of every node's decision batch holds
    // the broadcast of sources[s].
    sources.clear();
    std::fill(source_slot.begin(), source_slot.end(), -1);
    for (const int agent : eng.members()) {
      if (!eng.is_present(agent) || eng.straggles(agent)) continue;
      source_slot[static_cast<std::size_t>(agent)] = static_cast<int>(sources.size());
      sources.push_back(agent);
    }
    const int kept = static_cast<int>(sources.size());
    for (auto& batch : node_batches) batch.reshape(kept, dim);

    const DecisionSink sink = [&honest_slot, &node_batches, &source_slot](
                                  int node, int source, std::span<const double> decided) {
      const int slot = honest_slot[static_cast<std::size_t>(node)];
      if (slot >= 0) {
        node_batches[static_cast<std::size_t>(slot)].set_row(
            source_slot[static_cast<std::size_t>(source)], decided);
      }
    };

    // Phase 2a: every PRESENT faulty source picks its message — a straggler
    // computes and sends too, its message is merely late, so its rng stream
    // advances exactly as in the server-based driver (the axis semantics
    // are identical across drivers by contract).
    round_faulty.clear();
    for (const int agent : eng.members()) {
      if (eng.is_present(agent) && !roster[static_cast<std::size_t>(agent)].is_honest()) {
        round_faulty.push_back(agent);
      }
    }
    eng.parallel(static_cast<int>(round_faulty.size()), [&](int begin, int end) {
      for (int b = begin; b < end; ++b) {
        const int source = round_faulty[static_cast<std::size_t>(b)];
        const auto& spec = roster[static_cast<std::size_t>(source)];
        auto row = source_batch.row(faulty_slot[static_cast<std::size_t>(source)]);
        if (spec.cost != nullptr) {
          spec.cost->gradient_into(estimates.front(), row);
        } else {
          std::fill(row.begin(), row.end(), 0.0);
        }
        const attack::RowAttackContext context{estimates.front(), row, honest_view, t};
        const bool sent = spec.fault->emit_into(row, context, eng.agent_rng(source));
        if (!sent) std::fill(row.begin(), row.end(), 0.0);
      }
    });

    // Phase 2b: every delivered source broadcasts its value; the broadcast
    // writes each honest node's decision straight into that node's batch
    // row for this source.  Sources are independent (own rng stream, own
    // source row, own decision rows, protocol rng derived from the
    // per-source seed), so the phase parallelizes over sources without
    // reordering any stream.
    eng.parallel(kept, [&](int begin, int end) {
      for (int s = begin; s < end; ++s) {
        const int source = sources[static_cast<std::size_t>(s)];
        const auto& spec = roster[static_cast<std::size_t>(source)];
        const std::span<const double> value =
            spec.is_honest()
                ? honest_batch.row(honest_slot[static_cast<std::size_t>(source)])
                : source_batch.row(faulty_slot[static_cast<std::size_t>(source)]);
        source_messages[static_cast<std::size_t>(source)] = broadcast(source, value, t, sink);
      }
    });
    for (int s = 0; s < kept; ++s) {
      result.broadcast_messages += source_messages[static_cast<std::size_t>(sources[static_cast<std::size_t>(s)])];
    }

    // Phase 3: local filter + update on every present honest node
    // (parallel; each node owns its batch, workspace, filtered vector,
    // estimate and trace).  Straggling nodes still update — their outbound
    // message lagged, not their inbound.  A churned node's trace stops
    // growing; a round in which nobody broadcast holds position.
    const int usable_f =
        engine::usable_fault_bound(aggregator, config.f, eng.current_f(), kept,
                                   static_cast<int>(eng.members().size()), n);
    eng.parallel(static_cast<int>(round_honest.size()), [&](int begin, int end) {
      for (int u = begin; u < end; ++u) {
        const auto idx = static_cast<std::size_t>(round_honest[static_cast<std::size_t>(u)]);
        if (usable_f >= 0) {
          aggregator.aggregate_into(node_filtered[idx], node_batches[idx], usable_f,
                                    node_workspaces[idx]);
          estimates[idx] = config.box.project(estimates[idx] -
                                              config.schedule->step(t) * node_filtered[idx]);
        }
        result.traces[idx].estimates.push_back(estimates[idx]);
      }
    });
    // A sitting-out node holds position but still records, so traces stay
    // time-aligned; only a churned node's trace stops growing.
    for (int k = 0; k < h; ++k) {
      const int node = result.honest_nodes[static_cast<std::size_t>(k)];
      if (eng.is_member(node) && !eng.is_present(node)) {
        const auto idx = static_cast<std::size_t>(k);
        result.traces[idx].estimates.push_back(estimates[idx]);
      }
    }
  }
  result.eliminated_agents = eng.eliminated_count();
  result.departed_agents = eng.departed_count();
  return result;
}

std::uint64_t round_seed(std::uint64_t base, int round, int source) {
  return base ^ (static_cast<std::uint64_t>(round) << 20) ^ static_cast<std::uint64_t>(source);
}

/// Adapts either broadcast protocol (Oral Messages / Dolev-Strong) to the
/// core's BroadcastFn: run the protocol, then fan the decided values out to
/// the sink.  One definition so the two transports cannot drift.
template <typename Broadcast, typename Strategies>
BroadcastFn make_broadcast_fn(const Broadcast& broadcast, const Strategies& strategies,
                              std::uint64_t seed) {
  return [&broadcast, &strategies, seed](int source, std::span<const double> value, int round,
                                         const DecisionSink& sink) {
    const auto outcome = broadcast.broadcast(source, value, strategies,
                                             round_seed(seed, round, source));
    for (std::size_t i = 0; i < outcome.decisions.size(); ++i) {
      sink(static_cast<int>(i), source, outcome.decisions[i].coefficients());
    }
    return outcome.messages_sent;
  };
}

}  // namespace

P2pDgdResult run_p2p_dgd(const std::vector<sim::AgentSpec>& roster, const P2pDgdConfig& config,
                         const agg::GradientAggregator& aggregator,
                         const RelayStrategy* faulty_relay) {
  const int n = static_cast<int>(roster.size());
  ABFT_REQUIRE(n > 3 * config.f, "unauthenticated p2p broadcast requires n > 3f");
  const OralMessagesBroadcast broadcast(n, config.f);

  // Broadcast-layer strategies: faulty agents get `faulty_relay` (or honest
  // relay when none is given — they still lie at the source via FaultModel).
  std::vector<const RelayStrategy*> strategies(roster.size(), nullptr);
  if (faulty_relay != nullptr) {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (!roster[i].is_honest()) strategies[i] = faulty_relay;
    }
  }

  return run_p2p_core(roster, config, aggregator,
                      make_broadcast_fn(broadcast, strategies, config.seed));
}

P2pDgdResult run_p2p_dgd_authenticated(const std::vector<sim::AgentSpec>& roster,
                                       const P2pDgdConfig& config,
                                       const agg::GradientAggregator& aggregator,
                                       const DsStrategy* faulty_ds) {
  const int n = static_cast<int>(roster.size());
  ABFT_REQUIRE(n > 2 * config.f,
               "p2p DGD needs f < n/2 (Lemma 1) even with authenticated broadcast");
  const DolevStrongBroadcast broadcast(n, config.f);

  std::vector<const DsStrategy*> strategies(roster.size(), nullptr);
  if (faulty_ds != nullptr) {
    for (std::size_t i = 0; i < roster.size(); ++i) {
      if (!roster[i].is_honest()) strategies[i] = faulty_ds;
    }
  }

  return run_p2p_core(roster, config, aggregator,
                      make_broadcast_fn(broadcast, strategies, config.seed));
}

}  // namespace abft::p2p
