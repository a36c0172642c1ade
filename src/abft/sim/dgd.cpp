#include "abft/sim/dgd.hpp"

#include <algorithm>
#include <type_traits>

#include "abft/util/check.hpp"

namespace abft::sim {

DgdSimulation::Engine DgdSimulation::make_engine(const std::vector<AgentSpec>& roster,
                                                 const DgdConfig& config) {
  ABFT_REQUIRE(!roster.empty(), "simulation needs at least one agent");
  ABFT_REQUIRE(config.schedule != nullptr, "simulation needs a step schedule");
  ABFT_REQUIRE(config.iterations >= 0, "iterations must be non-negative");
  ABFT_REQUIRE(config.f >= 0, "declared fault bound must be non-negative");
  ABFT_REQUIRE(config.x0.dim() == config.box.dim(), "x0/box dimension mismatch");
  for (const auto& spec : roster) {
    if (spec.is_honest()) {
      ABFT_REQUIRE(spec.cost != nullptr, "honest agent needs a cost function");
    }
    if (spec.cost != nullptr) {
      ABFT_REQUIRE(spec.cost->dim() == config.box.dim(), "agent cost dimension mismatch");
    }
  }
  const engine::EngineCoreConfig core{config.seed, config.agg_threads, config.agg_mode,
                                     config.agg_precision};
  if (!config.async) {
    return Engine(std::in_place_type<engine::RoundEngine>, faulty_mask(roster), config.box.dim(),
                  engine::RoundEngineConfig{core, config.axes});
  }
  // The async mode realizes lateness/loss through the virtual clock; the
  // synchronous perturbation axes and drop injection do not compose with
  // it, so reject the combination instead of silently ignoring either.
  ABFT_REQUIRE(!config.axes.enabled(),
               "async mode does not compose with the participation/straggler/churn axes");
  ABFT_REQUIRE(config.drop_probability == 0.0, "async mode does not compose with drop injection");
  return Engine(std::in_place_type<engine::AsyncRoundEngine>, faulty_mask(roster),
                config.box.dim(), engine::AsyncEngineConfig{core, *config.async});
}

DgdSimulation::DgdSimulation(std::vector<AgentSpec> roster, DgdConfig config)
    : roster_(std::move(roster)),
      config_(std::move(config)),
      network_(config_.drop_probability, config_.seed ^ 0x5eedf00dULL),
      engine_(make_engine(roster_, config_)) {
  network_.record_transcript(config_.record_transcript);
  honest_writer_ = [this](int agent, const Vector& estimate, int /*round*/,
                          std::span<double> out) {
    roster_[static_cast<std::size_t>(agent)].cost->gradient_into(estimate, out);
  };
}

void DgdSimulation::set_honest_gradient_writer(HonestGradientWriter writer) {
  ABFT_REQUIRE(static_cast<bool>(writer), "honest gradient writer must be callable");
  honest_writer_ = std::move(writer);
}

void DgdSimulation::set_observer(Observer observer) {
  std::visit([&observer](auto& eng) { eng.set_observer(std::move(observer)); }, engine_);
}

Trace DgdSimulation::run(const agg::GradientAggregator& aggregator) {
  return std::visit([&](auto& eng) {
    eng.reset(config_.f);

    Trace trace;
    trace.estimates.reserve(static_cast<std::size_t>(config_.iterations) + 1);
    Vector x = config_.box.project(config_.x0);
    trace.estimates.push_back(x);

    for (int t = 0; t < config_.iterations; ++t) {
      eng.begin_round(t);

      // Produce: honest replies straight into their payload rows, then the
      // Byzantine replies mutated in place (the true gradient is
      // materialized into the fault's own row first, so emit_into sees it
      // without scratch — the row may alias the output, part of the
      // emit_into contract).  In async mode only the agents whose previous
      // row was consumed (or dropped stale) start a new gradient, against
      // the CURRENT estimate — a row consumed k rounds later is a stale
      // gradient by construction.
      eng.emit_honest([&](int agent, std::span<double> out) {
        honest_writer_(agent, x, t, out);
      });
      eng.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView& view) {
        const auto& spec = roster_[static_cast<std::size_t>(agent)];
        if (spec.cost != nullptr) {
          spec.cost->gradient_into(x, row);
        } else {
          std::fill(row.begin(), row.end(), 0.0);
        }
        const attack::RowAttackContext context{x, row, view, t};
        return spec.fault->emit_into(row, context, eng.agent_rng(agent));
      });

      // Close.  Sync: the network moves each surviving message to the next
      // kept payload row, and undelivered messages eliminate the sender
      // (step S1); the round's messages are counted once, after the loop.
      // A lossless network draws and records nothing, so the engine drops
      // the silent rows itself.
      // Async: fire on quorum-or-deadline over the
      // staleness-weighted rows; silence is indistinguishable from slowness
      // without a synchronous close, so the membership never shrinks.
      if constexpr (std::is_same_v<std::decay_t<decltype(eng)>, engine::RoundEngine>) {
        // Every message either fills a kept row or eliminates its sender.
        const int eliminated_before = eng.eliminated_count();
        const int kept =
            network_.lossless()
                ? eng.deliver_lossless()
                : eng.deliver([&](int agent, std::span<const double> payload,
                                  std::span<double> dst) {
                    return network_.deliver_row(agent, t, payload, dst);
                  });
        network_.count_sent(kept + eng.eliminated_count() - eliminated_before);
        trace.eliminated_agents = eng.eliminated_count();
        trace.departed_agents = eng.departed_count();
      } else {
        eng.collect(t);
      }

      // Filter + update; a round with nothing (usable) to aggregate — only
      // possible under the straggler/participation axes or in async mode —
      // holds position.
      if (eng.aggregate(aggregator, filtered_)) {
        eng.notify(t, x, filtered_);
        x = config_.box.project(x - config_.schedule->step(t) * filtered_);
      }
      trace.estimates.push_back(x);
    }
    return trace;
  }, engine_);
}

}  // namespace abft::sim
