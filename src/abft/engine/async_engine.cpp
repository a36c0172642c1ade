#include "abft/engine/async_engine.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

namespace abft::engine {

namespace {

constexpr std::uint64_t kArrivalSeedTag = 0xa11c10c4a55a1edULL;

}  // namespace

AsyncRoundEngine::AsyncRoundEngine(std::vector<unsigned char> faulty, int dim,
                                   AsyncEngineConfig config)
    : faulty_(std::move(faulty)),
      dim_(dim),
      config_(std::move(config)),
      ring_(faulty_.empty() ? 1 : faulty_.size()) {
  ABFT_REQUIRE(!faulty_.empty(), "async engine needs at least one agent");
  ABFT_REQUIRE(dim_ > 0, "async engine needs a positive dimension");
  const AsyncConfig& a = config_.async;
  ABFT_REQUIRE(a.quorum >= 0, "async quorum must be non-negative (0 = full roster)");
  ABFT_REQUIRE(a.deadline > 0.0 && std::isfinite(a.deadline),
               "async deadline must be positive and finite");
  ABFT_REQUIRE(a.staleness_cap >= 0, "async staleness_cap must be non-negative");
  if (a.arrival.kind == "exponential") {
    arrival_kind_ = ArrivalKind::exponential;
  } else if (a.arrival.kind == "fixed") {
    arrival_kind_ = ArrivalKind::fixed;
  } else {
    ABFT_REQUIRE(a.arrival.kind == "uniform",
                 "async arrival kind must be 'uniform', 'exponential' or 'fixed'");
  }
  ABFT_REQUIRE(a.arrival.scale > 0.0 && std::isfinite(a.arrival.scale),
               "async arrival scale must be positive and finite");
  threads_ = std::max(1, config_.threads);
  pool_ = std::make_unique<agg::ThreadPool>(threads_);
  workspace_.parallel_threads = threads_;
  workspace_.pool = pool_.get();
  workspace_.mode = config_.mode;
  workspace_.precision = config_.precision;
  payload_.reshape(roster_size(), dim_);
  computing_.assign(faulty_.size(), 0);
  arrival_time_.assign(faulty_.size(), 0.0);
  reset(0);
}

void AsyncRoundEngine::reset(int declared_f) {
  ABFT_REQUIRE(declared_f >= 0, "declared fault bound must be non-negative");
  // Fault streams: identical derivation to the synchronous engine (master
  // split per agent), so a full-quorum zero-staleness run replays the sync
  // trace bit for bit.  Arrival streams are split from a tagged master so
  // the virtual clock never perturbs the fault randomness.
  util::Rng master(config_.seed);
  agent_rng_.clear();
  agent_rng_.reserve(faulty_.size());
  for (std::size_t i = 0; i < faulty_.size(); ++i) agent_rng_.push_back(master.split());
  util::Rng arrival_master(config_.seed ^ kArrivalSeedTag);
  arrival_rng_.clear();
  arrival_rng_.reserve(faulty_.size());
  for (std::size_t i = 0; i < faulty_.size(); ++i) arrival_rng_.push_back(arrival_master.split());
  ring_.drain([](const PendingRow&) {});
  pending_.clear();
  std::fill(computing_.begin(), computing_.end(), 0);
  std::fill(arrival_time_.begin(), arrival_time_.end(), 0.0);
  declared_f_ = declared_f;
  round_ = 0;
  kept_ = 0;
  stats_ = AsyncStats{};
}

double AsyncRoundEngine::draw_duration(int agent) {
  // "fixed": every computation takes exactly `scale`, consuming no
  // randomness — the deterministic model the window-boundary and staleness
  // contract tests pin their arithmetic on.
  if (arrival_kind_ == ArrivalKind::fixed) return config_.async.arrival.scale;
  util::Rng& rng = arrival_rng_[static_cast<std::size_t>(agent)];
  const double u = rng.uniform();
  if (arrival_kind_ == ArrivalKind::exponential) {
    // Inverse-CDF with u in [0, 1): 1 - u in (0, 1], so the log is finite.
    return -config_.async.arrival.scale * std::log(1.0 - u);
  }
  return config_.async.arrival.scale * (0.5 + u);
}

void AsyncRoundEngine::begin_round(int round) {
  round_ = round;
  // Window open: drop rows that aged past the cap — they would never be
  // aggregated again, and their agents go back to work instead of waiting.
  std::erase_if(pending_, [&](const PendingRow& p) {
    if (round - p.birth_round > config_.async.staleness_cap) {
      ++stats_.stale_dropped;
      computing_[static_cast<std::size_t>(p.agent)] = 0;
      return true;
    }
    return false;
  });
  // Every idle agent starts computing against the current estimate; its
  // virtual completion time comes from its own arrival stream, so the draw
  // order (roster order, serial) never affects another agent's stream.
  starting_.clear();
  starting_honest_.clear();
  starting_faulty_.clear();
  const double window_open = static_cast<double>(round) * config_.async.deadline;
  for (int agent = 0; agent < roster_size(); ++agent) {
    if (computing_[static_cast<std::size_t>(agent)] != 0) continue;
    computing_[static_cast<std::size_t>(agent)] = 1;
    arrival_time_[static_cast<std::size_t>(agent)] = window_open + draw_duration(agent);
    starting_.push_back(agent);
    (faulty_[static_cast<std::size_t>(agent)] != 0 ? starting_faulty_ : starting_honest_)
        .push_back(agent);
  }
  kept_ = 0;
}

void AsyncRoundEngine::push_row(int agent) {
  const bool pushed = ring_.try_push(
      PendingRow{agent, round_, arrival_time_[static_cast<std::size_t>(agent)]});
  // One outstanding row per agent and capacity >= roster size: cannot fill.
  ABFT_ENSURE(pushed, "async ring overflow");
}

int AsyncRoundEngine::collect(int round) {
  // Drain the concurrent pushes, then impose the deterministic order the
  // thread schedule cannot provide.
  ring_.drain([this](PendingRow&& p) { pending_.push_back(p); });
  std::sort(pending_.begin(), pending_.end(), [](const PendingRow& a, const PendingRow& b) {
    return a.birth_round != b.birth_round ? a.birth_round < b.birth_round : a.agent < b.agent;
  });

  // The round window is half-open, [t*D, (t+1)*D): a row arriving exactly at
  // the close belongs to the NEXT window — it neither counts toward this
  // round's quorum nor gets consumed at the deadline fire below.  (The old
  // `<=` here let a boundary row jump its window, skewing both.)
  const double window_close = static_cast<double>(round + 1) * config_.async.deadline;
  arrived_.clear();
  for (const PendingRow& p : pending_) {
    if (p.arrival_time < window_close) arrived_.push_back(p);
  }
  std::sort(arrived_.begin(), arrived_.end(), [](const PendingRow& a, const PendingRow& b) {
    return a.arrival_time != b.arrival_time ? a.arrival_time < b.arrival_time
                                            : a.agent < b.agent;
  });

  const int quorum = config_.async.quorum == 0
                         ? roster_size()
                         : std::min(config_.async.quorum, roster_size());
  double fire_time = window_close;
  if (static_cast<int>(arrived_.size()) >= quorum) {
    fire_time = arrived_[static_cast<std::size_t>(quorum - 1)].arrival_time;
    ++stats_.quorum_fires;
  } else {
    ++stats_.deadline_fires;
  }

  // Consume every row arrived by the trigger, in (birth_round, agent) order,
  // scaled by its staleness weight; the rest stay pending for later rounds.
  ingest_.reshape(roster_size(), dim_);
  int kept = 0;
  std::erase_if(pending_, [&](const PendingRow& p) {
    // A deadline fire has fire_time == window_close, which the half-open
    // window excludes — hence the second guard.
    if (p.arrival_time > fire_time || p.arrival_time >= window_close) return false;
    const int age = round - p.birth_round;
    const auto src = payload_.row(p.agent);
    const auto dst = ingest_.row(kept);
    if (age <= 0) {
      std::copy(src.begin(), src.end(), dst.begin());
    } else {
      const double weight = 1.0 / (1.0 + static_cast<double>(age));
      for (std::size_t j = 0; j < src.size(); ++j) dst[j] = weight * src[j];
      ++stats_.late_rows;
    }
    computing_[static_cast<std::size_t>(p.agent)] = 0;
    ++kept;
    return true;
  });
  ingest_.truncate_rows(kept);
  kept_ = kept;
  return kept;
}

bool AsyncRoundEngine::aggregate(const agg::GradientAggregator& rule, Vector& out) {
  // No synchronous close means no step-S1 detectability: the membership (and
  // with it the adversary bound) never shrinks, so current_f == declared_f.
  const int n = roster_size();
  const int usable_f = usable_fault_bound(rule, declared_f_, declared_f_, kept_, n, n);
  if (usable_f < 0) return false;
  rule.aggregate_into(out, ingest_, usable_f, workspace_);
  return true;
}

}  // namespace abft::engine
