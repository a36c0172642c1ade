#include "outcome.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <ostream>
#include <span>
#include <sstream>

namespace bench_e2e {

namespace {

using abft::util::JsonValue;

/// FNV-1a over the object representation of the digested values.
class Digest {
 public:
  explicit Digest(std::uint64_t state) : hash_(state) {}

  void add_bytes(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(double value) { add_bytes(&value, sizeof value); }
  void add(long long value) { add_bytes(&value, sizeof value); }
  void add(std::span<const double> values) {
    add(static_cast<long long>(values.size()));
    add_bytes(values.data(), values.size() * sizeof(double));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_;
};

bool all_finite(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

void add_counters(const abft::scenario::ScenarioResult& result, Counters* counters) {
  counters->eliminated += result.eliminated_agents;
  counters->departed += result.departed_agents;
  counters->messages_sent += result.messages_sent;
  counters->broadcast_messages += result.broadcast_messages;
  if (result.async_stats) {
    counters->quorum_fires += result.async_stats->quorum_fires;
    counters->deadline_fires += result.async_stats->deadline_fires;
    counters->stale_dropped += result.async_stats->stale_dropped;
    counters->late_rows += result.async_stats->late_rows;
  }
}

/// Folds the deterministic parts of a result into the outcome's digest and
/// finite flag.
void digest_result(const abft::scenario::ScenarioResult& result, Outcome* outcome) {
  Digest digest(outcome->digest);
  for (const auto& trace : result.traces) {
    const auto x = trace.final_estimate().coefficients();
    digest.add(x);
    outcome->finite = outcome->finite && all_finite(x);
    digest.add(static_cast<long long>(trace.estimates.size()));
  }
  if (result.series) {
    const auto& series = *result.series;
    const auto params = series.final_params.coefficients();
    digest.add(params);
    digest.add(series.train_loss);
    digest.add(series.test_accuracy);
    outcome->finite = outcome->finite && all_finite(params) && all_finite(series.train_loss) &&
                      all_finite(series.test_accuracy);
  }
  Counters counters;
  add_counters(result, &counters);
  for (const long long count :
       {counters.eliminated, counters.departed, counters.messages_sent,
        counters.broadcast_messages, counters.quorum_fires, counters.deadline_fires,
        counters.stale_dropped, counters.late_rows}) {
    digest.add(count);
  }
  outcome->digest = digest.value();
}

}  // namespace

Workload parse_workload(std::string_view text, std::uint64_t seed, int iterations, int threads) {
  const JsonValue json = abft::util::parse_json(text);
  Workload workload;
  workload.is_sweep = abft::sweep::is_sweep_json(json);
  if (!workload.is_sweep) {
    workload.scenario = abft::scenario::parse_scenario(json);
    workload.scenario.seed = seed;
    if (iterations >= 0) workload.scenario.iterations = iterations;
    workload.scenario.threads = threads;
    return workload;
  }
  auto& sweep = workload.sweep;
  sweep = abft::sweep::parse_sweep(json);
  if (sweep.seed.empty()) {
    abft::sweep::set_base_member(&sweep, "seed",
                                 JsonValue::make_number(static_cast<double>(seed)));
  } else {
    // {"from": seed, "count": same as the spec's}.
    for (std::size_t i = 0; i < sweep.seed.size(); ++i) sweep.seed[i] = seed + i;
  }
  if (iterations >= 0) {
    abft::sweep::set_base_member(&sweep, "iterations",
                                 JsonValue::make_number(static_cast<double>(iterations)));
  }
  sweep.threads = threads;
  return workload;
}

Outcome summarize(const abft::scenario::ScenarioResult& result) {
  Outcome outcome;
  outcome.rounds = result.spec.iterations;
  outcome.final_dist = result.distance_to_reference.value_or(
      std::numeric_limits<double>::quiet_NaN());
  outcome.final_cost = result.final_cost;
  digest_result(result, &outcome);
  add_counters(result, &outcome.counters);
  outcome.finite = outcome.finite && std::isfinite(outcome.final_cost) &&
                   (!result.distance_to_reference || std::isfinite(outcome.final_dist));
  return outcome;
}

Outcome summarize(const abft::sweep::SweepOutcome& sweep) {
  Outcome outcome;
  double dist_sum = 0.0;
  double cost_sum = 0.0;
  bool every_dist = true;
  for (const auto& run : sweep.runs) {
    const auto& result = run.result;
    outcome.rounds += result.spec.iterations;
    digest_result(result, &outcome);
    add_counters(result, &outcome.counters);
    cost_sum += result.final_cost;
    if (result.distance_to_reference) {
      dist_sum += *result.distance_to_reference;
    } else {
      every_dist = false;
    }
  }
  const double runs = static_cast<double>(std::max<std::size_t>(sweep.runs.size(), 1));
  outcome.final_cost = cost_sum / runs;
  outcome.final_dist =
      every_dist ? dist_sum / runs : std::numeric_limits<double>::quiet_NaN();
  outcome.finite = outcome.finite && std::isfinite(outcome.final_cost) &&
                   (!every_dist || std::isfinite(outcome.final_dist));
  return outcome;
}

Outcome run_untraced(const Workload& workload) {
  if (workload.is_sweep) return summarize(abft::sweep::run_sweep(workload.sweep));
  return summarize(abft::scenario::run_scenario(workload.scenario));
}

void write_number(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "null";
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  os << buffer;
}

std::string hex_digest(std::uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(digest));
  return text;
}

void write_outcome_members(std::ostream& os, const Outcome& outcome) {
  const Counters& c = outcome.counters;
  os << "\"rounds\": " << outcome.rounds << ", \"final_dist\": ";
  write_number(os, outcome.final_dist);
  os << ", \"final_cost\": ";
  write_number(os, outcome.final_cost);
  os << ", \"finite\": " << (outcome.finite ? "true" : "false") << ", \"digest\": \"" << hex_digest(outcome.digest)
     << "\", \"counts\": {\"eliminated\": " << c.eliminated << ", \"departed\": " << c.departed
     << ", \"messages_sent\": " << c.messages_sent
     << ", \"broadcast_messages\": " << c.broadcast_messages
     << ", \"quorum_fires\": " << c.quorum_fires << ", \"deadline_fires\": " << c.deadline_fires
     << ", \"stale_dropped\": " << c.stale_dropped << ", \"late_rows\": " << c.late_rows << "}";
}

long long peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      long long kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

}  // namespace bench_e2e
