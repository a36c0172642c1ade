#include "abft/engine/async_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "abft/util/check.hpp"

namespace abft::engine {

namespace {

constexpr std::uint64_t kArrivalSeedTag = 0xa11c10c4a55a1edULL;

}  // namespace

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
  arrived_.resize(n);
  arrived_times_.resize(n);
  consumed_.resize(n);
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
  // order never affects another agent's stream.  The scans compact without
  // a branch: each writes its candidate at the cursor and advances the
  // cursor by the predicate, into a buffer with room for every candidate.
  ABFT_REQUIRE(!arrival_rng_.empty(), "reset(f) must start a run before its first round");
  const int n = roster_size();
  starting_.resize(static_cast<std::size_t>(n));
  int starting = 0;
  long long stale = 0;
  for (int agent = 0; agent < n; ++agent) {
    const auto a = static_cast<std::size_t>(agent);
    const bool busy = computing_[a] != 0;
    const bool expired = round - birth_round_[a] > config_.staleness_cap;
    stale += static_cast<int>(busy & expired);
    starting_[static_cast<std::size_t>(starting)] = agent;
    starting += static_cast<int>(!busy | expired);
  }
  starting_.resize(static_cast<std::size_t>(starting));
  stats_.stale_dropped += stale;

  const double window_open = static_cast<double>(round) * config_.deadline;
  starting_honest_.resize(starting_.size());
  starting_faulty_.resize(starting_.size());
  std::size_t honest = 0;
  std::size_t faulty = 0;
  for (const int agent : starting_) {
    const auto a = static_cast<std::size_t>(agent);
    computing_[a] = 1;
    birth_round_[a] = round;
    arrival_time_[a] = window_open + draw_duration(agent);
    const bool byzantine = core_.faulty[a] != 0;
    starting_honest_[honest] = agent;
    starting_faulty_[faulty] = agent;
    honest += static_cast<std::size_t>(!byzantine);
    faulty += static_cast<std::size_t>(byzantine);
  }
  starting_honest_.resize(honest);
  starting_faulty_.resize(faulty);
  kept_ = 0;
}

int AsyncRoundEngine::collect(int round) {
  // The round window is half-open, [t*D, (t+1)*D): a row arriving exactly at
  // the close belongs to the NEXT window — it neither counts toward this
  // round's quorum nor gets consumed at the deadline fire.
  const int n = roster_size();
  const double window_close = static_cast<double>(round + 1) * config_.deadline;
  int arrived = 0;
  for (int agent = 0; agent < n; ++agent) {
    const auto a = static_cast<std::size_t>(agent);
    arrived_[static_cast<std::size_t>(arrived)] = agent;
    arrived_times_[static_cast<std::size_t>(arrived)] = arrival_time_[a];
    arrived += static_cast<int>((computing_[a] != 0) & (arrival_time_[a] < window_close));
  }

  // A row in flight was born at round - span or later (older ones were
  // dropped at the open), so every arrival lies in [(round - span)*D,
  // close).  The quorum search counts the arrivals into kFireBuckets equal
  // buckets over that range; the bucket index never falls as the time
  // grows, so all of a bucket's arrivals come after those of the buckets
  // below it.
  const int span = std::min(config_.staleness_cap, round);
  const int quorum = config_.quorum == 0 ? n : std::min(config_.quorum, n);
  double fire_time = window_close;
  if (arrived >= quorum) {
    const double lo = static_cast<double>(round - span) * config_.deadline;
    const double per_bucket = kFireBuckets / (window_close - lo);
    const auto bucket = [lo, per_bucket](double time) {
      return static_cast<int>(
          std::min(std::max(0.0, (time - lo) * per_bucket), kFireBuckets - 1.0));
    };
    fire_buckets_.fill(0);
    for (int k = 0; k < arrived; ++k) {
      const double time = arrived_times_[static_cast<std::size_t>(k)];
      ++fire_buckets_[static_cast<std::size_t>(bucket(time))];
    }
    // The quorum-th earliest arrival is the (quorum - below)-th earliest of
    // the bucket it falls in; only its value matters, so ties between
    // agents cannot change what fires.
    int fire_bucket = 0;
    int below = 0;
    while (below + fire_buckets_[static_cast<std::size_t>(fire_bucket)] < quorum) {
      below += fire_buckets_[static_cast<std::size_t>(fire_bucket++)];
    }
    int candidates = 0;
    for (int k = 0; k < arrived; ++k) {
      const double time = arrived_times_[static_cast<std::size_t>(k)];
      arrived_times_[static_cast<std::size_t>(candidates)] = time;
      candidates += static_cast<int>(bucket(time) == fire_bucket);
    }
    const auto nth = arrived_times_.begin() + (quorum - 1 - below);
    std::nth_element(arrived_times_.begin(), nth, arrived_times_.begin() + candidates);
    fire_time = *nth;
    ++stats_.quorum_fires;
  } else {
    ++stats_.deadline_fires;
  }

  // Consume every row arrived by the trigger, in (birth_round, agent) order:
  // the rows due are compacted in agent order while their ages are counted,
  // then one counting pass by age lays them out oldest first.  The rows stay
  // in the payload; a late row is scaled there by its staleness weight,
  // which is safe because its agent only writes the row again once it
  // restarts at the next open.
  age_rows_.assign(static_cast<std::size_t>(span) + 1, 0);
  int due = 0;
  for (int k = 0; k < arrived; ++k) {
    const int agent = arrived_[static_cast<std::size_t>(k)];
    const auto a = static_cast<std::size_t>(agent);
    const bool fired = arrival_time_[a] <= fire_time;
    arrived_[static_cast<std::size_t>(due)] = agent;
    due += static_cast<int>(fired);
    age_rows_[static_cast<std::size_t>(round - birth_round_[a])] += static_cast<int>(fired);
  }
  std::exclusive_scan(age_rows_.rbegin(), age_rows_.rend(), age_rows_.rbegin(), 0);
  for (int k = 0; k < due; ++k) {
    const int agent = arrived_[static_cast<std::size_t>(k)];
    const auto a = static_cast<std::size_t>(agent);
    int& slot = age_rows_[static_cast<std::size_t>(round - birth_round_[a])];
    consumed_[static_cast<std::size_t>(slot++)] = agent;
    computing_[a] = 0;
  }
  // age_rows_[age] now ends the rows of that age.
  int row = 0;
  for (int age = span; age > 0; --age) {
    const double weight = 1.0 / (1.0 + static_cast<double>(age));
    for (; row < age_rows_[static_cast<std::size_t>(age)]; ++row) {
      for (double& v : core_.payload.row(consumed_[static_cast<std::size_t>(row)])) v *= weight;
    }
  }
  stats_.late_rows += row;
  kept_ = due;
  return due;
}

}  // namespace abft::engine
