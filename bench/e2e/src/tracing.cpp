#include "tracing.hpp"

#include <algorithm>
#include <atomic>
#include <ostream>
#include <utility>

namespace bench_e2e {

namespace {

std::atomic<std::uint64_t> next_recorder_id{1};

using Interval = std::pair<std::int64_t, std::int64_t>;

std::int64_t union_length(std::vector<Interval>& intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t open = 0;
  std::int64_t close = -1;
  for (const auto& [start, end] : intervals) {
    if (start > close) {
      if (close > open) total += close - open;
      open = start;
      close = end;
    } else {
      close = std::max(close, end);
    }
  }
  if (close > open) total += close - open;
  return total;
}

/// The q-quantile (nearest rank) of `values`, reordering them.
double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank),
                   values.end());
  return values[rank];
}

}  // namespace

std::string_view layer_name(Layer layer) {
  switch (layer) {
    case Layer::agg: return "agg";
    case Layer::attack: return "attack";
    case Layer::opt: return "opt";
    case Layer::learn_grad: return "learn_grad";
    case Layer::learn_eval: return "learn_eval";
    case Layer::round: return "round";
  }
  return "?";
}

SpanRecorder::SpanRecorder(std::size_t capacity_hint)
    : capacity_hint_(capacity_hint), id_(next_recorder_id.fetch_add(1)) {}

std::vector<Span>& SpanRecorder::local() {
  // Recorder ids are never reused, so a stale pointer left by an earlier
  // recorder can never match.
  thread_local std::uint64_t owner = 0;
  thread_local std::vector<Span>* buffer = nullptr;
  if (owner != id_) {
    const std::lock_guard lock(mutex_);
    buffers_.emplace_back().reserve(capacity_hint_);
    buffer = &buffers_.back();
    owner = id_;
  }
  return *buffer;
}

abft::engine::RoundObserver SpanRecorder::round_observer(std::int64_t start_ns) {
  auto last = std::make_shared<std::int64_t>(start_ns);
  return [this, last](int round, const Vector&, const Vector&) {
    const std::int64_t end = now();
    record(Layer::round, *last, end, round);
    *last = end;
  };
}

TraceSummary summarize_spans(const SpanRecorder& recorder) {
  TraceSummary summary;
  std::vector<Interval> all;
  for (int l = 0; l < kLayerCount; ++l) {
    const auto layer = static_cast<Layer>(l);
    LayerStats& stats = summary.layers[l];
    std::vector<Interval> intervals;
    std::vector<double> call_us;
    for (const auto& buffer : recorder.buffers()) {
      for (const Span& span : buffer) {
        if (span.layer != layer) continue;
        intervals.emplace_back(span.start_ns, span.end_ns);
        call_us.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
        stats.arg_sum += span.arg;
      }
    }
    stats.calls = static_cast<long long>(intervals.size());
    stats.call_us_p50 = quantile(call_us, 0.50);
    stats.call_us_p90 = quantile(call_us, 0.90);
    if (layer != Layer::round) all.insert(all.end(), intervals.begin(), intervals.end());
    stats.busy_ns = union_length(intervals);
  }
  summary.busy_all_ns = union_length(all);
  return summary;
}

void write_spans_jsonl(const SpanRecorder& recorder, std::ostream& os) {
  const auto& buffers = recorder.buffers();
  // Round boundaries per thread: (end time, round index), in time order.
  std::vector<std::vector<std::pair<std::int64_t, int>>> rounds(buffers.size());
  int threads_with_rounds = 0;
  std::size_t round_thread = 0;
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    for (const Span& span : buffers[b]) {
      if (span.layer == Layer::round) rounds[b].emplace_back(span.end_ns, span.arg);
    }
    if (!rounds[b].empty()) {
      ++threads_with_rounds;
      round_thread = b;
    }
  }
  for (std::size_t b = 0; b < buffers.size(); ++b) {
    const auto& boundaries =
        !rounds[b].empty() || threads_with_rounds != 1 ? rounds[b] : rounds[round_thread];
    for (const Span& span : buffers[b]) {
      int round = -1;
      if (span.layer == Layer::round) {
        round = span.arg;
      } else {
        const auto next = std::lower_bound(boundaries.begin(), boundaries.end(),
                                           std::make_pair(span.end_ns, -1));
        if (next != boundaries.end()) round = next->second;
      }
      os << "{\"layer\": \"" << layer_name(span.layer) << "\", \"thread\": " << b
         << ", \"start_ns\": " << span.start_ns << ", \"end_ns\": " << span.end_ns
         << ", \"round\": " << round;
      if (span.layer == Layer::agg) os << ", \"rows\": " << span.arg;
      os << "}\n";
    }
  }
}

}  // namespace bench_e2e
