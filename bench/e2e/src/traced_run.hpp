// The traced pass: builds the same workload run_scenario/run_sweep would
// build from a spec, but with every cost, fault, model and aggregator behind
// a tracing decorator, and runs it through DgdSimulation, run_p2p_dgd or
// run_dsgd.  The assembly below mirrors scenario.cpp's private workload
// construction (problem instance, roster, fault factory, schedule, x0, dsgd
// data streams); its outcome digest must equal the untraced run's, which
// checks the mirror.
#pragma once

#include <cstdint>

#include "outcome.hpp"
#include "tracing.hpp"

namespace bench_e2e {

struct TracedRun {
  Outcome outcome;
  /// The whole traced call, workload assembly included.
  std::int64_t call_ns = 0;
  /// Wall time of the round loops; for a sweep, of the whole
  /// parallel grid (per-run assembly included).
  std::int64_t loop_ns = 0;
  /// False on p2p: run_p2p_dgd has no round observer.
  bool observes_rounds = true;
  /// Gradient dimension (the rows the filter sees).
  int dim = 0;
};

/// Spans a traced run of the workload is expected to record (a capacity
/// hint for the recorder's buffers).
std::size_t expected_spans(const Workload& workload);

/// Runs the workload with tracing.  Supports dgd (sync and async), p2p
/// (honest relaying) and dsgd scenarios, and sweeps over dgd scenarios;
/// throws std::invalid_argument naming anything else.
TracedRun run_traced(const Workload& workload, SpanRecorder& recorder);

}  // namespace bench_e2e
