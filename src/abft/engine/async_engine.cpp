#include "abft/engine/async_engine.hpp"

#include <algorithm>
#include <cmath>

#include "abft/util/check.hpp"

namespace abft::engine {

namespace {

constexpr std::uint64_t kArrivalSeedTag = 0xa11c10c4a55a1edULL;

}  // namespace

void order_by_birth(std::span<const int> agents, std::span<const int> birth_round,
                    std::vector<int>& starts, std::vector<int>& out) {
  out.resize(agents.size());
  if (agents.empty()) return;
  const auto birth = [&birth_round](int agent) {
    return birth_round[static_cast<std::size_t>(agent)];
  };
  int oldest = birth(agents.front());
  int newest = oldest;
  for (const int agent : agents) {
    oldest = std::min(oldest, birth(agent));
    newest = std::max(newest, birth(agent));
  }
  // starts[b - oldest] ends up as the first slot of birth round b.
  starts.assign(static_cast<std::size_t>(newest - oldest) + 2, 0);
  for (const int agent : agents) ++starts[static_cast<std::size_t>(birth(agent) - oldest) + 1];
  for (std::size_t b = 1; b < starts.size(); ++b) starts[b] += starts[b - 1];
  for (const int agent : agents) {
    out[static_cast<std::size_t>(starts[static_cast<std::size_t>(birth(agent) - oldest)]++)] =
        agent;
  }
}

AsyncRoundEngine::AsyncRoundEngine(std::vector<unsigned char> faulty, int dim,
                                   AsyncEngineConfig config)
    : core_(std::move(faulty), dim, config),
      config_(std::move(config.async)) {
  const AsyncConfig& a = config_;
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
  core_.payload.reshape(roster_size(), dim);
  reset(0);
}

void AsyncRoundEngine::reset(int declared_f) {
  ABFT_REQUIRE(declared_f >= 0, "declared fault bound must be non-negative");
  // Fault streams: identical derivation to the synchronous engine, so a
  // full-quorum zero-staleness run replays the sync trace bit for bit.
  // Arrival streams are split from a tagged master so the virtual clock
  // never perturbs the fault randomness.
  const std::size_t n = core_.faulty.size();
  split_streams(core_.seed, n, core_.agent_rng);
  split_streams(core_.seed ^ kArrivalSeedTag, n, arrival_rng_);
  computing_.assign(n, 0);
  birth_round_.assign(n, 0);
  arrival_time_.assign(n, 0.0);
  declared_f_ = declared_f;
  kept_ = 0;
  stats_ = AsyncStats{};
}

double AsyncRoundEngine::draw_duration(int agent) {
  // "fixed": every computation takes exactly `scale`, consuming no
  // randomness — the deterministic model the window-boundary and staleness
  // contract tests pin their arithmetic on.
  if (arrival_kind_ == ArrivalKind::fixed) return config_.arrival.scale;
  util::Rng& rng = arrival_rng_[static_cast<std::size_t>(agent)];
  const double u = rng.uniform();
  if (arrival_kind_ == ArrivalKind::exponential) {
    // Inverse-CDF with u in [0, 1): 1 - u in (0, 1], so the log is finite.
    return -config_.arrival.scale * std::log(1.0 - u);
  }
  return config_.arrival.scale * (0.5 + u);
}

void AsyncRoundEngine::begin_round(int round) {
  // Window open.  A row aged past the cap would never be aggregated again:
  // drop it and send its agent back to work.  Every idle agent starts
  // computing against the current estimate; its virtual completion time
  // comes from its own arrival stream, so the (serial, roster-order) draw
  // order never affects another agent's stream.
  starting_.clear();
  starting_honest_.clear();
  starting_faulty_.clear();
  const double window_open = static_cast<double>(round) * config_.deadline;
  for (int agent = 0; agent < roster_size(); ++agent) {
    const auto a = static_cast<std::size_t>(agent);
    if (computing_[a] != 0) {
      if (round - birth_round_[a] <= config_.staleness_cap) continue;
      ++stats_.stale_dropped;
    }
    computing_[a] = 1;
    birth_round_[a] = round;
    arrival_time_[a] = window_open + draw_duration(agent);
    starting_.push_back(agent);
    (core_.faulty[a] != 0 ? starting_faulty_ : starting_honest_).push_back(agent);
  }
  kept_ = 0;
}

int AsyncRoundEngine::collect(int round) {
  // The round window is half-open, [t*D, (t+1)*D): a row arriving exactly at
  // the close belongs to the NEXT window — it neither counts toward this
  // round's quorum nor gets consumed at the deadline fire.
  const double window_close = static_cast<double>(round + 1) * config_.deadline;
  arrived_.clear();
  arrived_times_.clear();
  for (int agent = 0; agent < roster_size(); ++agent) {
    const auto a = static_cast<std::size_t>(agent);
    if (computing_[a] != 0 && arrival_time_[a] < window_close) {
      arrived_.push_back(agent);
      arrived_times_.push_back(arrival_time_[a]);
    }
  }

  const int quorum =
      config_.quorum == 0 ? roster_size() : std::min(config_.quorum, roster_size());
  double fire_time = window_close;
  if (static_cast<int>(arrived_.size()) >= quorum) {
    // The quorum-th earliest arrival.  Only its value matters, so ties
    // between agents cannot change what fires.
    const auto nth = arrived_times_.begin() + (quorum - 1);
    std::nth_element(arrived_times_.begin(), nth, arrived_times_.end());
    fire_time = *nth;
    ++stats_.quorum_fires;
  } else {
    ++stats_.deadline_fires;
  }

  // Consume every row arrived by the trigger, in (birth_round, agent) order,
  // scaled by its staleness weight; the rest stay in flight.  Births span at
  // most staleness_cap + 1 rounds, and the counting pass keeps agent order
  // within one birth round.
  std::erase_if(arrived_, [&](int agent) {
    return arrival_time_[static_cast<std::size_t>(agent)] > fire_time;
  });
  order_by_birth(arrived_, birth_round_, birth_starts_, consumed_);
  ingest_.reshape(static_cast<int>(consumed_.size()), core_.dim);
  int kept = 0;
  for (const int agent : consumed_) {
    const auto a = static_cast<std::size_t>(agent);
    const int age = round - birth_round_[a];
    const auto src = core_.payload.row(agent);
    const auto dst = ingest_.row(kept++);
    if (age <= 0) {
      std::copy(src.begin(), src.end(), dst.begin());
    } else {
      const double weight = 1.0 / (1.0 + static_cast<double>(age));
      for (std::size_t j = 0; j < src.size(); ++j) dst[j] = weight * src[j];
      ++stats_.late_rows;
    }
    computing_[a] = 0;
  }
  kept_ = kept;
  return kept;
}

}  // namespace abft::engine
