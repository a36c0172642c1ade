// Spans around the calls into each layer, recorded from the benchmark's own
// files: forwarding decorators over the library's public virtual interfaces
// (GradientAggregator, CostFunction, FaultModel, learn::Model) time every
// call and append a span to the calling thread's preallocated buffer.  Round
// boundaries come from the RoundObserver hook.  Spans stay in
// memory while a run is timed; the buffers are read once it has returned.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <vector>

#include "abft/agg/aggregator.hpp"
#include "abft/attack/fault.hpp"
#include "abft/engine/round_engine.hpp"
#include "abft/learn/model.hpp"
#include "abft/opt/cost.hpp"

namespace bench_e2e {

using abft::linalg::Vector;

/// `round` spans run from one RoundObserver call to the next on a thread;
/// the others cover one call into the named layer.
enum class Layer : std::uint8_t { agg, attack, opt, learn_grad, learn_eval, round };
inline constexpr int kLayerCount = 6;
std::string_view layer_name(Layer layer);

struct Span {
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  /// agg: rows in the batch; round: the round index the observer reported.
  std::int32_t arg = 0;
  Layer layer = Layer::agg;
};

class SpanRecorder {
 public:
  /// `capacity_hint` spans are reserved in each thread's buffer.
  explicit SpanRecorder(std::size_t capacity_hint);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] std::int64_t now() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Appends to the calling thread's buffer (registered on first use).
  void record(Layer layer, std::int64_t start_ns, std::int64_t end_ns, std::int32_t arg) {
    local().push_back(Span{start_ns, end_ns, arg, layer});
  }

  /// One buffer per recording thread.  Read only while no run is active.
  [[nodiscard]] const std::deque<std::vector<Span>>& buffers() const noexcept {
    return buffers_;
  }

  /// A RoundObserver that records one `round` span per call, from the
  /// previous call on the same run (or `start_ns`) to now.
  abft::engine::RoundObserver round_observer(std::int64_t start_ns);

 private:
  std::vector<Span>& local();

  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::size_t capacity_hint_;
  std::uint64_t id_;
  std::mutex mutex_;  // guards buffers_ registration
  std::deque<std::vector<Span>> buffers_;
};

/// Times one call: records a span when it goes out of scope.
class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, Layer layer, std::int32_t arg = 0)
      : recorder_(recorder), layer_(layer), arg_(arg), start_(recorder.now()) {}
  ~SpanScope() { recorder_.record(layer_, start_, recorder_.now(), arg_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
  Layer layer_;
  std::int32_t arg_;
  std::int64_t start_;
};

// ----------------------------- decorators -----------------------------------

class TracedAggregator final : public abft::agg::GradientAggregator {
 public:
  TracedAggregator(std::unique_ptr<abft::agg::GradientAggregator> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] Vector aggregate(std::span<const Vector> gradients, int f) const override {
    const SpanScope scope(recorder_, Layer::agg, static_cast<std::int32_t>(gradients.size()));
    return inner_->aggregate(gradients, f);
  }
  void aggregate_into(Vector& out, const abft::agg::GradientBatch& batch, int f,
                      abft::agg::AggregatorWorkspace& workspace) const override {
    const SpanScope scope(recorder_, Layer::agg, batch.rows());
    inner_->aggregate_into(out, batch, f, workspace);
  }
  [[nodiscard]] int max_usable_f(int n) const noexcept override {
    return inner_->max_usable_f(n);
  }
  [[nodiscard]] int min_usable_f() const noexcept override { return inner_->min_usable_f(); }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<abft::agg::GradientAggregator> inner_;
  SpanRecorder& recorder_;
};

class TracedCost final : public abft::opt::CostFunction {
 public:
  TracedCost(const abft::opt::CostFunction& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  [[nodiscard]] int dim() const noexcept override { return inner_.dim(); }
  [[nodiscard]] double value(const Vector& x) const override { return inner_.value(x); }
  [[nodiscard]] Vector gradient(const Vector& x) const override {
    const SpanScope scope(recorder_, Layer::opt);
    return inner_.gradient(x);
  }
  void gradient_into(const Vector& x, std::span<double> out) const override {
    const SpanScope scope(recorder_, Layer::opt);
    inner_.gradient_into(x, out);
  }

 private:
  const abft::opt::CostFunction& inner_;
  SpanRecorder& recorder_;
};

class TracedFault final : public abft::attack::FaultModel {
 public:
  TracedFault(std::unique_ptr<abft::attack::FaultModel> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] std::optional<Vector> emit(const abft::attack::AttackContext& context,
                                           abft::util::Rng& rng) const override {
    const SpanScope scope(recorder_, Layer::attack);
    return inner_->emit(context, rng);
  }
  [[nodiscard]] bool emit_into(std::span<double> out,
                               const abft::attack::RowAttackContext& context,
                               abft::util::Rng& rng) const override {
    const SpanScope scope(recorder_, Layer::attack);
    return inner_->emit_into(out, context, rng);
  }
  [[nodiscard]] std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<abft::attack::FaultModel> inner_;
  SpanRecorder& recorder_;
};

/// Gradient calls (loss with a gradient out-parameter) are `learn_grad`;
/// loss without one and predict are the evaluation pass, `learn_eval`.
class TracedModel final : public abft::learn::Model {
 public:
  TracedModel(std::unique_ptr<abft::learn::Model> inner, SpanRecorder& recorder)
      : inner_(std::move(inner)), recorder_(recorder) {}

  [[nodiscard]] int param_dim() const noexcept override { return inner_->param_dim(); }
  double loss(const Vector& params, const abft::learn::Dataset& data,
              std::span<const int> examples, Vector* gradient) const override {
    const SpanScope scope(recorder_, gradient != nullptr ? Layer::learn_grad : Layer::learn_eval);
    return inner_->loss(params, data, examples, gradient);
  }
  [[nodiscard]] int predict(const Vector& params, const Vector& features) const override {
    const SpanScope scope(recorder_, Layer::learn_eval);
    return inner_->predict(params, features);
  }

 private:
  std::unique_ptr<abft::learn::Model> inner_;
  SpanRecorder& recorder_;
};

// ------------------------------ analysis ------------------------------------

struct LayerStats {
  long long calls = 0;
  /// |union of the call intervals|.
  std::int64_t busy_ns = 0;
  double call_us_p50 = 0.0;
  double call_us_p90 = 0.0;
  /// Sum of `arg` over the calls (agg: rows aggregated).
  long long arg_sum = 0;
};

struct TraceSummary {
  LayerStats layers[kLayerCount];
  /// |union of every non-round span|.
  std::int64_t busy_all_ns = 0;
};

/// Per-layer call counts, busy time and call-time percentiles.
TraceSummary summarize_spans(const SpanRecorder& recorder);

/// One JSON object per span: layer, thread (buffer index), start/end ns and
/// the round it fell in (the next round boundary on its own thread, or on
/// the only thread that saw round boundaries; -1 when there is none).
void write_spans_jsonl(const SpanRecorder& recorder, std::ostream& os);

}  // namespace bench_e2e
