// The event-driven engine mode: the quorum-or-deadline trigger, the
// (birth_round, agent) consume order, silent Byzantine starters, staleness
// weighting/dropping, the sync-parity guarantee (full quorum + zero
// staleness + bounded arrivals replays the synchronous trace bit for bit),
// and thread-count/replay determinism through the scenario layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abft/agg/hierarchy.hpp"
#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/engine/async_engine.hpp"
#include "abft/scenario/scenario.hpp"
#include "abft/util/json.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using linalg::Vector;

// --------------------------- config validation -------------------------------

TEST(AsyncEngine, RejectsInvalidConfigs) {
  const std::vector<unsigned char> roster{0, 0, 1};
  auto config = [](auto mutate) {
    engine::AsyncEngineConfig c;
    c.seed = 1;
    mutate(c.async);
    return c;
  };
  EXPECT_NO_THROW(engine::AsyncRoundEngine(roster, 2, config([](auto&) {})));
  EXPECT_THROW(engine::AsyncRoundEngine(roster, 2, config([](auto& a) { a.quorum = -1; })),
               std::invalid_argument);
  EXPECT_THROW(engine::AsyncRoundEngine(roster, 2, config([](auto& a) { a.deadline = 0.0; })),
               std::invalid_argument);
  EXPECT_THROW(
      engine::AsyncRoundEngine(roster, 2, config([](auto& a) { a.staleness_cap = -1; })),
      std::invalid_argument);
  EXPECT_THROW(
      engine::AsyncRoundEngine(roster, 2, config([](auto& a) { a.arrival.kind = "bursty"; })),
      std::invalid_argument);
  EXPECT_THROW(
      engine::AsyncRoundEngine(roster, 2, config([](auto& a) { a.arrival.scale = 0.0; })),
      std::invalid_argument);
}

TEST(AsyncEngine, ArrivalKindIsCheckedOnceAtConstruction) {
  // The kind is parsed into the engine at construction; an unknown spelling
  // is rejected there, naming the three known ones.
  engine::AsyncEngineConfig config;
  config.seed = 1;
  config.async.arrival.kind = "Uniform";
  try {
    engine::AsyncRoundEngine engine(std::vector<unsigned char>{0, 0, 1}, 2, config);
    ADD_FAILURE() << "an unknown arrival kind must be rejected";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what())
                  .find("async arrival kind must be 'uniform', 'exponential' or 'fixed'"),
              std::string::npos)
        << error.what();
  }
  for (const char* kind : {"uniform", "exponential", "fixed"}) {
    config.async.arrival.kind = kind;
    EXPECT_NO_THROW(engine::AsyncRoundEngine(std::vector<unsigned char>{0, 0, 1}, 2, config))
        << kind;
  }
}

// ------------------------- trigger + staleness weighting ---------------------

TEST(AsyncEngine, StalenessWeightIsOneOverOnePlusAge) {
  // One agent with a heavy-tailed compute time: rows routinely span windows,
  // so consumed ages vary.  The consumed row must equal g / (1 + age), and
  // an age-0 row must be the unscaled bitwise row.
  engine::AsyncEngineConfig config;
  config.seed = 11;
  config.async.arrival.kind = "exponential";
  config.async.arrival.scale = 2.0;
  config.async.staleness_cap = 10;
  engine::AsyncRoundEngine eng({0}, 1, config);
  eng.reset(0);
  int birth = -1;
  int consumed = 0;
  for (int t = 0; t < 60; ++t) {
    eng.begin_round(t);
    if (!eng.starting_agents().empty()) birth = t;
    eng.emit_honest([](int, std::span<double> out) { out[0] = 1.0; });
    if (eng.collect(t) == 1) {
      ASSERT_GE(birth, 0);
      const int age = t - birth;
      const double expected = age == 0 ? 1.0 : 1.0 / (1.0 + static_cast<double>(age));
      EXPECT_DOUBLE_EQ(eng.consumed_row(0)[0], expected);
      ++consumed;
    }
  }
  EXPECT_GT(consumed, 0);
  EXPECT_EQ(eng.stats().quorum_fires + eng.stats().deadline_fires, 60);
}

TEST(AsyncEngine, QuorumFiresEarlyAndLeftoversCarryOver) {
  // Uniform scale 0.5 keeps every duration inside the window, so all three
  // rows always arrive — but quorum 2 fires at the second arrival, leaving
  // (at least) one row pending to be consumed a round late at weight 1/2.
  engine::AsyncEngineConfig config;
  config.seed = 5;
  config.async.quorum = 2;
  config.async.staleness_cap = 3;
  engine::AsyncRoundEngine eng({0, 0, 0}, 1, config);
  eng.reset(0);
  for (int t = 0; t < 20; ++t) {
    eng.begin_round(t);
    eng.emit_honest([](int agent, std::span<double> out) {
      out[0] = static_cast<double>(agent + 1);
    });
    const int kept = eng.collect(t);
    EXPECT_GE(kept, t == 0 ? 2 : 1);  // later rounds may consume carried rows
  }
  EXPECT_EQ(eng.stats().quorum_fires + eng.stats().deadline_fires, 20);
  EXPECT_GT(eng.stats().quorum_fires, 0);
  EXPECT_GT(eng.stats().late_rows, 0);
  EXPECT_EQ(eng.stats().stale_dropped, 0);  // nothing ever outlives cap 3
}

TEST(AsyncEngine, StalenessCapDropsWhatItSays) {
  // Same heavy tail, zero tolerance: any row that misses its own window is
  // dropped at the next open instead of ever being aggregated late.
  engine::AsyncEngineConfig config;
  config.seed = 11;
  config.async.arrival.kind = "exponential";
  config.async.arrival.scale = 2.0;
  engine::AsyncRoundEngine eng({0}, 1, config);
  eng.reset(0);
  int held = 0;
  for (int t = 0; t < 60; ++t) {
    eng.begin_round(t);
    eng.emit_honest([](int, std::span<double> out) { out[0] = 1.0; });
    if (eng.collect(t) == 0) ++held;
  }
  EXPECT_EQ(eng.stats().late_rows, 0);
  EXPECT_GT(eng.stats().stale_dropped, 0);
  EXPECT_GT(held, 0);  // the dropped rounds held position
}

// --------------------------- window boundary ---------------------------------

// The round window is half-open, [t*D, (t+1)*D): a row arriving EXACTLY at
// the close belongs to the next window.  The "fixed" arrival kind pins the
// arithmetic: scale == deadline puts every arrival exactly on a boundary.
// (Before the fix, the `<=` window filter consumed the boundary row in its
// birth round at age 0 — the round it provably had not arrived within.)
TEST(AsyncEngine, RowAtExactWindowCloseBelongsToTheNextWindow) {
  engine::AsyncEngineConfig config;
  config.seed = 3;
  config.async.deadline = 1.0;
  config.async.arrival.kind = "fixed";
  config.async.arrival.scale = 1.0;  // arrival lands exactly on the close
  config.async.staleness_cap = 1;
  engine::AsyncRoundEngine eng({0}, 1, config);
  eng.reset(0);

  eng.begin_round(0);
  ASSERT_EQ(eng.starting_agents().size(), 1u);
  eng.emit_honest([](int, std::span<double> out) { out[0] = 1.0; });
  // Round 0: the row arrives at t = 1.0 == the close — NOT consumable here,
  // neither by quorum (full roster) nor by the deadline fire.
  EXPECT_EQ(eng.collect(0), 0);
  EXPECT_EQ(eng.stats().deadline_fires, 1);
  EXPECT_EQ(eng.stats().quorum_fires, 0);

  // Round 1: the agent still has the row in flight (it never restarts), and
  // the row is now age 1 == staleness_cap — kept, consumed at weight 1/2.
  eng.begin_round(1);
  EXPECT_TRUE(eng.starting_agents().empty());
  eng.emit_honest([](int, std::span<double> out) { out[0] = 99.0; });  // no starter
  ASSERT_EQ(eng.collect(1), 1);
  EXPECT_DOUBLE_EQ(eng.consumed_row(0)[0], 0.5);
  EXPECT_EQ(eng.stats().late_rows, 1);
  EXPECT_EQ(eng.stats().stale_dropped, 0);
}

// The staleness contract is strict: a row is dropped only when age > cap.
// With cap 0 the boundary row above ages to 1 at the next open and is
// purged — every round drops and holds, nothing is ever aggregated late.
TEST(AsyncEngine, CapZeroDropsTheBoundaryRowAtTheNextOpen) {
  engine::AsyncEngineConfig config;
  config.seed = 3;
  config.async.deadline = 1.0;
  config.async.arrival.kind = "fixed";
  config.async.arrival.scale = 1.0;
  config.async.staleness_cap = 0;
  engine::AsyncRoundEngine eng({0}, 1, config);
  eng.reset(0);
  for (int t = 0; t < 5; ++t) {
    eng.begin_round(t);
    eng.emit_honest([](int, std::span<double> out) { out[0] = 1.0; });
    EXPECT_EQ(eng.collect(t), 0) << "round " << t;
  }
  // Round 0's row is dropped at open 1, round 1's at open 2, ...
  EXPECT_EQ(eng.stats().stale_dropped, 4);
  EXPECT_EQ(eng.stats().late_rows, 0);
  EXPECT_EQ(eng.stats().deadline_fires, 5);
}

// An agent has at most one row in flight, so one filter call can never
// ingest two rows from the same agent — pinned by recovering the agent id
// from each consumed row ((agent+1) * w in coord 0, the weight probe w in
// coord 1) and checking per-collect distinctness under heavy-tailed
// arrivals that routinely carry rows across windows.
TEST(AsyncEngine, OneCollectNeverIngestsTwoRowsFromOneAgent) {
  engine::AsyncEngineConfig config;
  config.seed = 17;
  config.async.quorum = 2;
  config.async.staleness_cap = 3;
  config.async.arrival.kind = "exponential";
  config.async.arrival.scale = 2.0;
  engine::AsyncRoundEngine eng({0, 0, 0}, 2, config);
  eng.reset(0);
  long long consumed = 0;
  for (int t = 0; t < 80; ++t) {
    eng.begin_round(t);
    eng.emit_honest([](int agent, std::span<double> out) {
      out[0] = static_cast<double>(agent + 1);
      out[1] = 1.0;
    });
    const int kept = eng.collect(t);
    std::vector<int> agents;
    for (int r = 0; r < kept; ++r) {
      const auto row = eng.consumed_row(r);
      ASSERT_GT(row[1], 0.0);
      const int agent = static_cast<int>(std::lround(row[0] / row[1])) - 1;
      ASSERT_GE(agent, 0);
      ASSERT_LT(agent, 3);
      for (const int seen : agents) {
        ASSERT_NE(agent, seen) << "round " << t << " consumed agent " << agent << " twice";
      }
      agents.push_back(agent);
    }
    consumed += kept;
  }
  // The shape exercised the carry-over path, not just fresh rows.
  EXPECT_GT(eng.stats().late_rows, 0);
  EXPECT_GT(consumed, 0);
}

// collect() consumes in (birth_round, agent) order: older carried-over rows
// first, agent order within one birth round.  Each row encodes its agent
// ((agent+1) * w in coord 0), the weight probe w (coord 1) and its birth
// round (birth * w in coord 2), so the order is recovered from the consumed
// batch alone.  Five agents with heavy-tailed arrivals mix ages in one
// batch; the shape must also contain a batch where plain agent order would
// differ (an older row from a higher agent ahead of a fresher lower one).
TEST(AsyncEngine, ConsumeOrderIsBirthRoundThenAgent) {
  engine::AsyncEngineConfig config;
  config.seed = 23;
  config.async.quorum = 3;
  config.async.staleness_cap = 3;
  config.async.arrival.kind = "exponential";
  config.async.arrival.scale = 1.5;
  engine::AsyncRoundEngine eng({0, 0, 0, 0, 0}, 3, config);
  eng.reset(0);
  int mixed_batches = 0;
  int agent_order_differs = 0;
  for (int t = 0; t < 120; ++t) {
    eng.begin_round(t);
    eng.emit_honest([t](int agent, std::span<double> out) {
      out[0] = static_cast<double>(agent + 1);
      out[1] = 1.0;
      out[2] = static_cast<double>(t);
    });
    const int kept = eng.collect(t);
    std::vector<std::pair<int, int>> order;  // (birth_round, agent)
    for (int r = 0; r < kept; ++r) {
      const auto row = eng.consumed_row(r);
      ASSERT_GT(row[1], 0.0);
      const int agent = static_cast<int>(std::lround(row[0] / row[1])) - 1;
      const int birth = static_cast<int>(std::lround(row[2] / row[1]));
      ASSERT_GE(agent, 0);
      ASSERT_LT(agent, 5);
      ASSERT_LE(birth, t);
      EXPECT_DOUBLE_EQ(row[1], 1.0 / (1.0 + static_cast<double>(t - birth)));
      order.emplace_back(birth, agent);
    }
    for (std::size_t k = 1; k < order.size(); ++k) {
      ASSERT_LT(order[k - 1], order[k]) << "round " << t << " row " << k;
      if (order[k - 1].first != order[k].first) ++mixed_batches;
      if (order[k - 1].second > order[k].second) ++agent_order_differs;
    }
  }
  EXPECT_GT(mixed_batches, 0);
  EXPECT_GT(agent_order_differs, 0);
  EXPECT_GT(eng.stats().quorum_fires, 0);
}

/// A test-local copy of the engine's window open and close as they were
/// written before the scans became branch-free and the rows stayed in the
/// payload: push_back roster scans, std::nth_element over every arrival for
/// the fire time, an erase of the rows arrived after it, std::stable_sort on
/// birth round, then a staleness-weighted copy of each consumed row into an
/// ingest batch.  The arrival streams are derived as the engine derives
/// them; the test writes each starter's row into `payload` as it writes the
/// engine's.
class BranchyAsyncReference {
 public:
  BranchyAsyncReference(std::vector<unsigned char> faulty, int dim, std::uint64_t seed,
                        engine::AsyncConfig config)
      : faulty_(std::move(faulty)), config_(std::move(config)) {
    const std::size_t n = faulty_.size();
    engine::split_streams(seed ^ 0xa11c10c4a55a1edULL, n, arrival_rng_);
    computing_.assign(n, 0);
    birth_round_.assign(n, 0);
    arrival_time_.assign(n, 0.0);
    payload.reshape(static_cast<int>(n), dim);
  }

  void begin_round(int round) {
    starting.clear();
    starting_honest.clear();
    starting_faulty.clear();
    const double window_open = static_cast<double>(round) * config_.deadline;
    for (int agent = 0; agent < roster(); ++agent) {
      const auto a = static_cast<std::size_t>(agent);
      if (computing_[a] != 0) {
        if (round - birth_round_[a] <= config_.staleness_cap) continue;
        ++stats.stale_dropped;
      }
      computing_[a] = 1;
      birth_round_[a] = round;
      arrival_time_[a] = window_open + draw_duration(agent);
      starting.push_back(agent);
      (faulty_[a] != 0 ? starting_faulty : starting_honest).push_back(agent);
    }
  }

  void silence(int agent) { computing_[static_cast<std::size_t>(agent)] = 0; }

  /// The consumed agents in order, with their staleness ages; their
  /// weighted rows land in `ingest`.
  std::vector<std::pair<int, int>> collect(int round) {
    const double window_close = static_cast<double>(round + 1) * config_.deadline;
    std::vector<int> arrived;
    std::vector<double> times;
    for (int agent = 0; agent < roster(); ++agent) {
      const auto a = static_cast<std::size_t>(agent);
      if (computing_[a] != 0 && arrival_time_[a] < window_close) {
        arrived.push_back(agent);
        times.push_back(arrival_time_[a]);
      }
    }
    const int quorum =
        config_.quorum == 0 ? roster() : std::min(config_.quorum, roster());
    double fire_time = window_close;
    if (static_cast<int>(arrived.size()) >= quorum) {
      const auto nth = times.begin() + (quorum - 1);
      std::nth_element(times.begin(), nth, times.end());
      fire_time = *nth;
      ++stats.quorum_fires;
    } else {
      ++stats.deadline_fires;
    }
    std::erase_if(arrived, [&](int agent) {
      return arrival_time_[static_cast<std::size_t>(agent)] > fire_time;
    });
    std::stable_sort(arrived.begin(), arrived.end(), [&](int x, int y) {
      return birth_round_[static_cast<std::size_t>(x)] < birth_round_[static_cast<std::size_t>(y)];
    });
    std::vector<std::pair<int, int>> consumed;
    ingest.reshape(static_cast<int>(arrived.size()), payload.cols());
    for (const int agent : arrived) {
      const int age = round - birth_round_[static_cast<std::size_t>(agent)];
      const auto src = payload.row(agent);
      const auto dst = ingest.row(static_cast<int>(consumed.size()));
      if (age <= 0) {
        std::copy(src.begin(), src.end(), dst.begin());
      } else {
        const double weight = 1.0 / (1.0 + static_cast<double>(age));
        for (std::size_t j = 0; j < src.size(); ++j) dst[j] = weight * src[j];
        ++stats.late_rows;
      }
      computing_[static_cast<std::size_t>(agent)] = 0;
      consumed.emplace_back(agent, age);
    }
    return consumed;
  }

  std::vector<int> starting;
  std::vector<int> starting_honest;
  std::vector<int> starting_faulty;
  engine::AsyncStats stats;
  agg::GradientBatch payload;  // row i: agent i's last written row
  agg::GradientBatch ingest;   // the last collect's weighted rows, in order

 private:
  [[nodiscard]] int roster() const { return static_cast<int>(faulty_.size()); }

  double draw_duration(int agent) {
    if (config_.arrival.kind == "fixed") return config_.arrival.scale;
    const double u = arrival_rng_[static_cast<std::size_t>(agent)].uniform();
    if (config_.arrival.kind == "exponential") return -config_.arrival.scale * std::log(1.0 - u);
    return config_.arrival.scale * (0.5 + u);
  }

  std::vector<unsigned char> faulty_;
  engine::AsyncConfig config_;
  std::vector<util::Rng> arrival_rng_;
  std::vector<unsigned char> computing_;
  std::vector<int> birth_round_;
  std::vector<double> arrival_time_;
};

void expect_same_stats(const engine::AsyncStats& a, const engine::AsyncStats& b,
                       const std::string& label) {
  EXPECT_EQ(a.quorum_fires, b.quorum_fires) << label;
  EXPECT_EQ(a.deadline_fires, b.deadline_fires) << label;
  EXPECT_EQ(a.stale_dropped, b.stale_dropped) << label;
  EXPECT_EQ(a.late_rows, b.late_rows) << label;
}

TEST(AsyncEngine, BranchFreeScansMatchTheBranchyScanAndStableSort) {
  // Per round: the starters, their honest/faulty split, the consumed ids,
  // every consumed row's bits, the kept count and the stats, against the
  // reference above, over staleness caps 0, 1, 2, 3 and 5, every arrival
  // kind, quorums 0, 1, n/2, n - 1 and n, and Byzantine agents that stay
  // silent on a pseudo-random schedule.  The fixed kind makes every
  // starter of a round arrive at one time (ties at the fire time) and, at
  // scale 1 = the deadline, exactly at the window close.
  constexpr int kAgents = 37;
  constexpr int kRounds = 30;
  std::vector<unsigned char> faulty(kAgents, 0);
  for (const int agent : {0, 5, 6, 17, 30, 36}) faulty[static_cast<std::size_t>(agent)] = 1;
  const auto silent = [](int agent, int round) { return (agent * 7 + round * 3) % 5 == 0; };
  struct Arrival {
    const char* kind;
    double scale;
  };
  int late_rows = 0;
  int stale_dropped = 0;
  int mixed_births = 0;
  int tied_fires = 0;
  for (const Arrival arrival :
       {Arrival{"uniform", 0.9}, Arrival{"exponential", 0.9}, Arrival{"exponential", 2.5},
        Arrival{"fixed", 1.3}, Arrival{"fixed", 0.5}, Arrival{"fixed", 1.0}}) {
    for (const int quorum : {0, 1, kAgents / 2, kAgents - 1, kAgents, 12, 30}) {
      for (const int cap : {0, 1, 2, 3, 5}) {
        engine::AsyncEngineConfig config;
        config.seed = 23;
        config.async.quorum = quorum;
        config.async.staleness_cap = cap;
        config.async.arrival.kind = arrival.kind;
        config.async.arrival.scale = arrival.scale;
        engine::AsyncRoundEngine eng(faulty, 2, config);
        BranchyAsyncReference reference(faulty, 2, config.seed, config.async);
        eng.reset(3);
        long long quorum_fires = 0;
        for (int t = 0; t < kRounds; ++t) {
          const std::string label = std::string(arrival.kind) + " scale " +
                                    std::to_string(arrival.scale) + " quorum " +
                                    std::to_string(quorum) + " cap " + std::to_string(cap) +
                                    " round " + std::to_string(t);
          eng.begin_round(t);
          reference.begin_round(t);
          const auto starting = eng.starting_agents();
          ASSERT_EQ(std::vector<int>(starting.begin(), starting.end()), reference.starting)
              << label;
          std::vector<int> honest;
          std::vector<int> byzantine;
          const auto write = [&](int agent, std::span<double> row) {
            row[0] = agent;
            row[1] = t;
            reference.payload.set_row(agent, std::span<const double>(row));
          };
          eng.emit_honest([&](int agent, std::span<double> row) {
            honest.push_back(agent);
            write(agent, row);
          });
          eng.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView&) {
            byzantine.push_back(agent);
            write(agent, row);
            return !silent(agent, t);
          });
          ASSERT_EQ(honest, reference.starting_honest) << label;
          ASSERT_EQ(byzantine, reference.starting_faulty) << label;
          for (const int agent : byzantine) {
            if (silent(agent, t)) reference.silence(agent);
          }

          const int kept = eng.collect(t);
          const auto consumed = reference.collect(t);
          ASSERT_EQ(kept, static_cast<int>(consumed.size())) << label;
          ASSERT_EQ(static_cast<int>(eng.consumed().size()), kept) << label;
          int previous_birth = t;
          for (int r = 0; r < kept; ++r) {
            const auto [agent, age] = consumed[static_cast<std::size_t>(r)];
            ASSERT_EQ(eng.consumed()[static_cast<std::size_t>(r)], agent) << label << " row " << r;
            const auto row = eng.consumed_row(r);
            const auto expected = reference.ingest.row(r);
            ASSERT_EQ(std::vector<double>(row.begin(), row.end()),
                      std::vector<double>(expected.begin(), expected.end()))
                << label << " row " << r << " (agent " << agent << ", age " << age << ")";
            if (r > 0 && t - age != previous_birth) ++mixed_births;
            previous_birth = t - age;
          }
          expect_same_stats(eng.stats(), reference.stats, label);
          // A quorum fire that consumes more rows than the quorum consumed
          // rows arrived at the fire time itself: a tie.
          const bool fired = eng.stats().quorum_fires > quorum_fires;
          quorum_fires = eng.stats().quorum_fires;
          if (fired && kept > (quorum == 0 ? kAgents : std::min(quorum, kAgents))) ++tied_fires;
        }
        late_rows += static_cast<int>(eng.stats().late_rows);
        stale_dropped += static_cast<int>(eng.stats().stale_dropped);
      }
    }
  }
  // The grid reaches what it is about: late and stale rows, batches that
  // mix birth rounds, and quorum fires on tied arrival times.
  EXPECT_GT(late_rows, 0);
  EXPECT_GT(stale_dropped, 0);
  EXPECT_GT(mixed_births, 0);
  EXPECT_GT(tied_fires, 0);
}

// A Byzantine starter whose emitter returns false stays silent: its row is
// never consumed, it is not eliminated, and it starts afresh next round.
TEST(AsyncEngine, SilentFaultyStarterIsNeverConsumedAndRestarts) {
  engine::AsyncEngineConfig config;
  config.seed = 4;
  config.async.arrival.kind = "fixed";
  config.async.arrival.scale = 0.5;  // every row arrives inside its window
  engine::AsyncRoundEngine eng({0, 1, 0}, 1, config);
  eng.reset(1);
  for (int t = 0; t < 4; ++t) {
    eng.begin_round(t);
    // Every agent was consumed or silent last round, so all three restart.
    ASSERT_EQ(eng.starting_agents().size(), 3u) << "round " << t;
    eng.emit_honest([](int agent, std::span<double> out) { out[0] = agent; });
    int calls = 0;
    const bool speak = t == 3;
    eng.emit_faulty([&](int agent, std::span<double> row, const attack::HonestRowsView& view) {
      ++calls;
      EXPECT_EQ(agent, 1);
      EXPECT_EQ(view.count(), 2);
      row[0] = 99.0;
      return speak;
    });
    EXPECT_EQ(calls, 1) << "round " << t;
    const int kept = eng.collect(t);
    if (!speak) {
      // Quorum = the full roster never arrives: the deadline fires with the
      // two honest rows, and the silent row is nowhere in the batch.
      ASSERT_EQ(kept, 2) << "round " << t;
      EXPECT_EQ(eng.consumed_row(0)[0], 0.0);
      EXPECT_EQ(eng.consumed_row(1)[0], 2.0);
    } else {
      ASSERT_EQ(kept, 3);
      EXPECT_EQ(eng.consumed_row(1)[0], 99.0);
    }
  }
  EXPECT_EQ(eng.stats().deadline_fires, 3);
  EXPECT_EQ(eng.stats().quorum_fires, 1);
  EXPECT_EQ(eng.stats().late_rows, 0);
  EXPECT_EQ(eng.stats().stale_dropped, 0);
}

// ------------------------- the filter over row ids ---------------------------

// The async engine hands the filter its consumed rows as ids into the
// payload.  aggregate_rows must equal packing those rows in order and
// running aggregate_into, bit for bit: for every registry rule through the
// gathering default, and for hierarchies (one shard, equal shards, unequal
// shards; identity and seeded assignment) through the override that
// composes the assignment over the ids.  Two calls of different row counts
// share each workspace, as consecutive fires do.
TEST(AggregateRows, EqualsGatherThenAggregateInto) {
  constexpr int kPayload = 70;
  constexpr int kDim = 8;
  util::Rng rng(41);
  agg::GradientBatch payload(kPayload, kDim);
  for (int i = 0; i < kPayload; ++i) {
    for (double& v : payload.row(i)) v = rng.normal(0.0, i % 9 == 0 ? 30.0 : 1.0);
  }
  // Scattered, unsorted ids: a shuffled prefix of the payload rows.
  const std::vector<int> order = rng.permutation(kPayload);
  const std::vector<std::vector<int>> row_sets{
      std::vector<int>(order.begin(), order.begin() + 48),
      std::vector<int>(order.begin() + 5, order.begin() + 62)};

  std::vector<std::unique_ptr<agg::GradientAggregator>> rules;
  for (const auto name : agg::aggregator_names()) rules.push_back(agg::make_aggregator(name));
  for (const int shards : {1, 4, 5}) {
    for (const char* leaf : {"krum", "cwtm", "multikrum"}) {
      for (const std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{9}}) {
        agg::HierarchyConfig config;
        config.shards = shards;
        config.leaf_rule = leaf;
        config.root_rule = "cwtm";
        config.assignment_seed = seed;
        rules.push_back(std::make_unique<agg::HierarchicalAggregator>(config));
      }
    }
  }

  int hierarchies = 0;
  for (const int threads : {1, 4}) {
    agg::ThreadPool pool(threads);
    for (const auto& rule : rules) {
      agg::AggregatorWorkspace by_ids;
      agg::AggregatorWorkspace packed;
      for (auto* ws : {&by_ids, &packed}) {
        ws->pool = &pool;
      }
      for (const auto& rows : row_sets) {
        const int n = static_cast<int>(rows.size());
        const int f = std::max(rule->min_usable_f(), std::min(3, rule->max_usable_f(n)));
        const std::string label = std::string(rule->name()) + " threads " +
                                  std::to_string(threads) + " n " + std::to_string(n);
        agg::GradientBatch gathered(n, kDim);
        for (int k = 0; k < n; ++k) {
          gathered.set_row(k, payload.row(rows[static_cast<std::size_t>(k)]));
        }
        Vector expected;
        rule->aggregate_into(expected, gathered, f, packed);
        Vector actual;
        rule->aggregate_rows(actual, payload, rows, f, by_ids);
        ASSERT_EQ(actual.dim(), kDim) << label;
        for (int j = 0; j < kDim; ++j) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(actual[j]),
                    std::bit_cast<std::uint64_t>(expected[j]))
              << label << " coord " << j;
        }
      }
      hierarchies += static_cast<int>(rule->name().starts_with("hier-"));
    }
  }
  EXPECT_EQ(hierarchies, 2 * 18);
}

// ------------------------------ sync parity ----------------------------------

scenario::ScenarioSpec parse_spec(const std::string& text) {
  return scenario::parse_scenario(util::parse_json(text));
}

const char* kSyncBase = R"({
  "driver": "dgd", "problem": "quadratic", "num_agents": 7, "dim": 3,
  "iterations": 25, "f": 1, "seed": 3, "box_halfwidth": 50.0,
  "schedule": {"kind": "harmonic", "scale": 0.6},
  "faults": [{"agent": 5, "kind": "random", "param": 10.0},
             {"agent": 6, "kind": "gradient-reverse"}]
})";

TEST(AsyncParity, FullQuorumZeroStalenessReplaysTheSyncTrace) {
  // quorum 0 (= full roster), staleness_cap 0 and uniform durations in
  // [0.25, 0.75) < deadline 1.0: every round consumes exactly the fresh
  // full batch in roster order — the sync engine's exact schedule.  The
  // faults include a stream consumer (random) so this also pins the
  // per-agent fault rng derivation to the synchronous engine's.
  auto sync_spec = parse_spec(kSyncBase);
  auto async_spec = parse_spec(kSyncBase);
  async_spec.async = engine::AsyncConfig{};
  const auto sync = scenario::run_scenario(sync_spec);
  const auto async = scenario::run_scenario(async_spec);
  ASSERT_TRUE(async.async_stats.has_value());
  EXPECT_FALSE(sync.async_stats.has_value());
  ASSERT_EQ(sync.traces.front().estimates.size(), async.traces.front().estimates.size());
  for (std::size_t t = 0; t < sync.traces.front().estimates.size(); ++t) {
    const auto& a = sync.traces.front().estimates[t];
    const auto& b = async.traces.front().estimates[t];
    ASSERT_EQ(a.dim(), b.dim());
    for (int k = 0; k < a.dim(); ++k) {
      ASSERT_EQ(a[k], b[k]) << "round " << t << " coord " << k;
    }
  }
  // Full roster always arrives inside the window, so every fire is a quorum
  // fire with nothing late or dropped.
  EXPECT_EQ(async.async_stats->quorum_fires, 25);
  EXPECT_EQ(async.async_stats->deadline_fires, 0);
  EXPECT_EQ(async.async_stats->late_rows, 0);
  EXPECT_EQ(async.async_stats->stale_dropped, 0);
}

TEST(AsyncParity, FixedArrivalsInsideTheWindowReplayTheSyncTrace) {
  // The deterministic arrival kind through the scenario layer: durations of
  // exactly 0.5 < deadline 1.0 with full quorum and zero staleness replay
  // the synchronous trace bit for bit, like the uniform-bounded case.
  auto sync_spec = parse_spec(kSyncBase);
  auto async_spec = parse_spec(kSyncBase);
  async_spec.async = engine::AsyncConfig{};
  async_spec.async->arrival.kind = "fixed";
  async_spec.async->arrival.scale = 0.5;
  const auto sync = scenario::run_scenario(sync_spec);
  const auto async = scenario::run_scenario(async_spec);
  ASSERT_EQ(sync.traces.front().estimates.size(), async.traces.front().estimates.size());
  for (std::size_t t = 0; t < sync.traces.front().estimates.size(); ++t) {
    const auto& a = sync.traces.front().estimates[t];
    const auto& b = async.traces.front().estimates[t];
    for (int k = 0; k < a.dim(); ++k) ASSERT_EQ(a[k], b[k]) << "round " << t;
  }
  // The spec layer accepts the spelling too (schema round trip).
  const auto spec = parse_spec(R"({
    "driver": "dgd", "problem": "quadratic", "num_agents": 4, "dim": 2,
    "iterations": 2, "schedule": {"kind": "harmonic", "scale": 0.4},
    "async": {"arrival": {"kind": "fixed", "scale": 0.25}}
  })");
  ASSERT_TRUE(spec.async.has_value());
  EXPECT_EQ(spec.async->arrival.kind, "fixed");
}

// ------------------------------ determinism ----------------------------------

const char* kAsyncScenario = R"({
  "driver": "dgd", "problem": "quadratic", "num_agents": 8, "dim": 3,
  "iterations": 40, "f": 1, "seed": 7, "box_halfwidth": 50.0,
  "schedule": {"kind": "harmonic", "scale": 0.6},
  "faults": [{"agent": 7, "kind": "random", "param": 10.0}],
  "async": {"quorum": 5, "staleness_cap": 2,
            "arrival": {"kind": "exponential", "scale": 0.9}}
})";

TEST(AsyncDeterminism, ThreadCountAndReplayInvariant) {
  auto spec1 = parse_spec(kAsyncScenario);
  auto spec4 = parse_spec(kAsyncScenario);
  spec4.threads = 4;
  const auto run1 = scenario::run_scenario(spec1);
  const auto run4 = scenario::run_scenario(spec4);
  const auto replay = scenario::run_scenario(spec4);
  ASSERT_EQ(run1.traces.front().estimates.size(), run4.traces.front().estimates.size());
  for (std::size_t t = 0; t < run1.traces.front().estimates.size(); ++t) {
    const auto& a = run1.traces.front().estimates[t];
    const auto& b = run4.traces.front().estimates[t];
    const auto& c = replay.traces.front().estimates[t];
    for (int k = 0; k < a.dim(); ++k) {
      ASSERT_EQ(a[k], b[k]) << "threads mismatch at round " << t;
      ASSERT_EQ(b[k], c[k]) << "replay mismatch at round " << t;
    }
  }
  ASSERT_TRUE(run1.async_stats && run4.async_stats && replay.async_stats);
  EXPECT_EQ(run1.async_stats->quorum_fires, run4.async_stats->quorum_fires);
  EXPECT_EQ(run1.async_stats->deadline_fires, run4.async_stats->deadline_fires);
  EXPECT_EQ(run1.async_stats->stale_dropped, run4.async_stats->stale_dropped);
  EXPECT_EQ(run1.async_stats->late_rows, run4.async_stats->late_rows);
  // The trigger fires exactly once per round, one way or the other.
  EXPECT_EQ(run1.async_stats->quorum_fires + run1.async_stats->deadline_fires, 40);
  // The heavy-tailed arrivals with a tight cap must exercise both the late
  // and the stale path — otherwise this grid tests nothing.
  EXPECT_GT(run1.async_stats->late_rows, 0);
  EXPECT_GT(run1.async_stats->stale_dropped, 0);
  // Async mode never eliminates: silence is indistinguishable from slowness.
  EXPECT_EQ(run1.eliminated_agents, 0);
}

}  // namespace
