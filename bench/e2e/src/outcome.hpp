// Workload loading and the comparable outcome of one run.
//
// A workload file is either a ScenarioSpec or a SweepSpec (detected by its
// "sweep" block) and goes through the library's own parsers.  The benchmark
// seed replaces the spec seed (for a sweep, it becomes seed.from of the seed
// axis), and the iteration count and thread width are benchmark settings.
//
// An Outcome is what two correct runs must agree on: the digest covers every
// final estimate (every honest node's on p2p, the parameters and the
// loss/accuracy series on dsgd, every run in grid order on a sweep) plus the
// engine counters, so equal digests mean bit-identical results.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "abft/scenario/scenario.hpp"
#include "abft/sweep/sweep.hpp"

namespace bench_e2e {

struct Workload {
  bool is_sweep = false;
  abft::scenario::ScenarioSpec scenario;
  abft::sweep::SweepSpec sweep;
};

/// Parses spec text; `iterations` < 0 keeps the spec's own count.  `threads`
/// is the scenario's round-level width, or the sweep's runner width.
Workload parse_workload(std::string_view text, std::uint64_t seed, int iterations, int threads);

/// Engine counters summed over every run of the outcome.
struct Counters {
  long long eliminated = 0;
  long long departed = 0;
  long long messages_sent = 0;
  long long broadcast_messages = 0;
  long long quorum_fires = 0;
  long long deadline_fires = 0;
  long long stale_dropped = 0;
  long long late_rows = 0;
};

struct Outcome {
  /// Rounds executed: the iteration count, or its sum over a sweep's runs.
  long long rounds = 0;
  /// ||x_T - x_H||; the mean over a sweep's runs; NaN when there is no
  /// closed-form reference (dsgd).
  double final_dist = 0.0;
  /// ScenarioResult::final_cost; the mean over a sweep's runs.
  double final_cost = 0.0;
  /// Every estimate/parameter/series value covered by the digest is finite.
  bool finite = true;
  /// FNV-1a state, starting from the offset basis.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  Counters counters;
};

/// The outcome of a result.  final_cost/final_dist are not digested: they
/// are functions of the final estimate, and the traced pass leaves them
/// unset.
Outcome summarize(const abft::scenario::ScenarioResult& result);
Outcome summarize(const abft::sweep::SweepOutcome& outcome);

/// Runs the workload through the public run_scenario/run_sweep.
Outcome run_untraced(const Workload& workload);

/// The digest as 16 hex digits.
std::string hex_digest(std::uint64_t digest);

/// Writes the outcome as JSON object members (no braces).
void write_outcome_members(std::ostream& os, const Outcome& outcome);

/// Peak resident set (VmHWM) of this process, in kB; 0 when unreadable.
long long peak_rss_kb();

/// Writes a JSON number with all its digits; non-finite values as null.
void write_number(std::ostream& os, double value);

}  // namespace bench_e2e
