#include "abft/engine/round_engine.hpp"

#include <algorithm>

#include "abft/util/check.hpp"

namespace abft::engine {

void split_streams(std::uint64_t seed, std::size_t count, std::vector<util::Rng>& streams) {
  util::Rng master(seed);
  streams.clear();
  streams.reserve(count);
  for (std::size_t i = 0; i < count; ++i) streams.push_back(master.split());
}

EngineCore::EngineCore(std::vector<unsigned char> faulty_mask, int row_dim,
                       const EngineCoreConfig& config)
    : faulty(std::move(faulty_mask)),
      dim(row_dim),
      seed(config.seed),
      threads(std::max(1, config.threads)) {
  ABFT_REQUIRE(!faulty.empty(), "round engine needs at least one agent");
  ABFT_REQUIRE(dim > 0, "round engine needs a positive dimension");
  pool = std::make_unique<agg::ThreadPool>(threads);
  workspace.pool = pool.get();
  workspace.mode = config.mode;
  workspace.precision = config.precision;
}

bool EngineCore::aggregate(const agg::GradientAggregator& rule, const agg::GradientBatch& batch,
                           std::span<const int> ids, int declared_f, int current_f, int kept,
                           int members_n, Vector& out) {
  const int usable_f =
      usable_fault_bound(rule, declared_f, current_f, kept, members_n, roster_size());
  if (usable_f < 0) return false;
  if (ids.empty()) {
    rule.aggregate_into(out, batch, usable_f, workspace);
  } else {
    rule.aggregate_rows(out, batch, ids, usable_f, workspace);
  }
  return true;
}

RoundEngine::RoundEngine(std::vector<unsigned char> faulty, int dim, RoundEngineConfig config)
    : core_(std::move(faulty), dim, config),
      planner_(std::move(config.axes), core_.roster_size()) {
  payload_row_.assign(core_.faulty.size(), -1);
}

void RoundEngine::reset(int declared_f) {
  ABFT_REQUIRE(declared_f >= 0, "declared fault bound must be non-negative");
  // Streams are re-derived per run, so repeated runs replay identically.
  split_streams(core_.seed, core_.faulty.size(), core_.agent_rng);
  planner_.reset();
  members_.resize(core_.faulty.size());
  for (std::size_t i = 0; i < members_.size(); ++i) members_[i] = static_cast<int>(i);
  member_mask_.assign(core_.faulty.size(), 1);
  declared_f_ = declared_f;
  current_f_ = declared_f;
  eliminated_ = 0;
  departed_ = 0;
  kept_ = 0;
  plan_reusable_ = false;
}

void RoundEngine::begin_round(int round) {
  ABFT_REQUIRE(!core_.agent_rng.empty(), "reset(f) must start a run before its first round");
  planner_.begin_round(round);
  for (const int agent : planner_.churned_this_round()) {
    if (is_member(agent)) depart(agent);
  }
  ABFT_REQUIRE(!members_.empty(), "every agent has left the system");

  if (!plan_reusable_) {
    present_.clear();
    honest_rows_.clear();
    faulty_rows_.clear();
    std::fill(payload_row_.begin(), payload_row_.end(), -1);
    for (const int agent : members_) {
      if (!planner_.participates(agent)) continue;
      const int row = static_cast<int>(present_.size());
      payload_row_[static_cast<std::size_t>(agent)] = row;
      present_.push_back(agent);
      (core_.faulty[static_cast<std::size_t>(agent)] != 0 ? faulty_rows_ : honest_rows_)
          .push_back(row);
    }
    plan_reusable_ = !planner_.axes().enabled();
  }
  // The payload buffer itself is shaped lazily on the first emit_* call:
  // drivers that run their own produce buffers (p2p) never pay for the
  // engine's n x d double buffer.
  payload_shaped_ = false;
  silent_.assign(present_.size(), 0);
  kept_ = 0;
}

void RoundEngine::ensure_payload() {
  if (!payload_shaped_) {
    core_.payload.reshape(static_cast<int>(present_.size()), core_.dim);
    payload_shaped_ = true;
  }
}

int RoundEngine::deliver_lossless() {
  if (planner_.axes().straggler_probability > 0.0) {
    return deliver([](int, std::span<const double> message, std::span<double> dst) {
      move_row(message, dst);
      return !message.empty();
    });
  }
  ensure_payload();
  double* rows = core_.payload.data();
  const auto dim = static_cast<std::size_t>(core_.dim);
  // Rows [next, silent row) move up to row kept; faulty_rows_ ascends.
  int kept = 0;
  int next = 0;
  const auto keep_until = [&](int end) {
    if (kept != next) {
      std::copy(rows + next * dim, rows + end * dim, rows + kept * dim);
    }
    kept += end - next;
  };
  for (const int row : faulty_rows_) {
    if (silent_[static_cast<std::size_t>(row)] == 0) continue;
    keep_until(row);
    next = row + 1;
    eliminate(present_[static_cast<std::size_t>(row)]);
  }
  keep_until(static_cast<int>(present_.size()));
  core_.payload.truncate_rows(kept);
  ABFT_REQUIRE(!members_.empty(), "every agent was eliminated");
  kept_ = kept;
  return kept;
}

int usable_fault_bound(const agg::GradientAggregator& rule, int declared_f, int current_f,
                       int kept, int members_n, int roster_n) {
  if (kept <= 0) return -1;
  if (declared_f > rule.max_usable_f(roster_n) || declared_f < rule.min_usable_f()) {
    // Misconfigured from the start: the legacy clamp, under which rules
    // with a real precondition (CWTM/Krum/Bulyan) throw it and rules with
    // only the generic f < n bound ran clamped — exactly the pre-engine
    // driver behaviour.
    return std::max(0, std::min(current_f, kept - 1));
  }
  // A permanently shrunk membership that can no longer tolerate the
  // adversaries known to remain is unsound to aggregate over at ANY clamped
  // budget — the filter would run weaker than the adversary count.  Hold.
  // (Eliminations shrink current_f alongside members_n and never trip this;
  // honest churn shrinks members_n alone and can.)
  if (current_f > rule.max_usable_f(members_n)) return -1;
  // A thin round of a valid configuration aggregates with the strongest f
  // the rule tolerates at this row count, or holds position when the rule
  // cannot run that thin at all.
  const int rule_cap = rule.max_usable_f(kept);
  if (rule_cap < 0) return -1;
  const int usable_f = std::max(0, std::min({current_f, kept - 1, rule_cap}));
  if (usable_f < rule.min_usable_f()) return -1;
  return usable_f;
}

void RoundEngine::eliminate(int agent) {
  // Step S1: a missing reply in a synchronous system is necessarily faulty —
  // eliminate the sender and shrink both n and f.
  remove_member(agent);
  current_f_ = std::max(0, current_f_ - 1);
  ++eliminated_;
}

void RoundEngine::depart(int agent) {
  // Churn: a faulty departure means one fewer adversary the filter must
  // tolerate; an honest departure only shrinks n.
  remove_member(agent);
  if (core_.faulty[static_cast<std::size_t>(agent)] != 0) current_f_ = std::max(0, current_f_ - 1);
  ++departed_;
}

void RoundEngine::remove_member(int agent) {
  const auto it = std::find(members_.begin(), members_.end(), agent);
  ABFT_ENSURE(it != members_.end(), "removing an agent that is not a member");
  members_.erase(it);
  member_mask_[static_cast<std::size_t>(agent)] = 0;
  plan_reusable_ = false;
}

}  // namespace abft::engine
