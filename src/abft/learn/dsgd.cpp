#include "abft/learn/dsgd.hpp"

#include <algorithm>

#include "abft/util/check.hpp"

namespace abft::learn {

namespace {

/// Concatenates the honest shards for the reference loss measurements.
Dataset merge_honest(const std::vector<Dataset>& shards, const std::vector<AgentFault>& faults) {
  int total = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (faults[i] == AgentFault::kHonest) total += shards[i].num_examples();
  }
  ABFT_REQUIRE(total > 0, "no honest data to evaluate on");
  Dataset merged{linalg::Matrix(total, shards.front().feature_dim()),
                 std::vector<int>(static_cast<std::size_t>(total)), shards.front().num_classes};
  int row = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (faults[i] != AgentFault::kHonest) continue;
    for (int r = 0; r < shards[i].num_examples(); ++r, ++row) {
      for (int k = 0; k < merged.feature_dim(); ++k) {
        merged.features(row, k) = shards[i].features(r, k);
      }
      merged.labels[static_cast<std::size_t>(row)] = shards[i].labels[static_cast<std::size_t>(r)];
    }
  }
  return merged;
}

std::vector<int> sample_batch(util::Rng& rng, int shard_size, int batch_size) {
  // Sampling with replacement keeps every iteration O(batch) regardless of
  // shard size, matching the i.i.d. mini-batch model in Appendix K.
  std::vector<int> batch(static_cast<std::size_t>(std::min(batch_size, shard_size)));
  for (auto& idx : batch) idx = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(shard_size)));
  return batch;
}

std::vector<unsigned char> faulty_mask(const std::vector<AgentFault>& faults) {
  std::vector<unsigned char> mask(faults.size(), 0);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    mask[i] = faults[i] == AgentFault::kHonest ? 0 : 1;
  }
  return mask;
}

}  // namespace

DsgdSeries run_dsgd(const Model& model, const Vector& initial_params,
                    const std::vector<Dataset>& shards, const std::vector<AgentFault>& faults,
                    const Dataset& test_set, const agg::GradientAggregator& aggregator,
                    const DsgdConfig& config) {
  ABFT_REQUIRE(!shards.empty(), "dsgd needs at least one agent");
  ABFT_REQUIRE(shards.size() == faults.size(), "one fault assignment per agent");
  ABFT_REQUIRE(initial_params.dim() == model.param_dim(), "initial parameter dimension mismatch");
  ABFT_REQUIRE(config.iterations >= 0 && config.batch_size > 0, "bad dsgd config");
  ABFT_REQUIRE(config.step_size > 0.0, "step size must be positive");
  ABFT_REQUIRE(config.eval_interval > 0, "eval interval must be positive");
  ABFT_REQUIRE(config.f >= 0 && config.f < static_cast<int>(shards.size()),
               "declared fault bound out of range");
  ABFT_REQUIRE(0.0 <= config.momentum && config.momentum < 1.0, "momentum must be in [0, 1)");

  // Label-flip faults act at the data level: pre-poison their shards.
  std::vector<Dataset> effective = shards;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (faults[i] == AgentFault::kLabelFlip) effective[i] = label_flipped(shards[i]);
  }
  const Dataset honest_data = merge_honest(shards, faults);

  // The engine owns the round machinery: per-agent rng streams, the pool,
  // the payload batch the filter reads and the scenario plan.  Every agent
  // owns its stream, gradient scratch, momentum buffer and batch row, so
  // the series is bit-identical at every thread count.
  engine::RoundEngine eng(faulty_mask(faults), model.param_dim(),
                          engine::RoundEngineConfig{{config.seed, config.agg_threads,
                                                    config.agg_mode, config.agg_precision},
                                                    config.axes});
  eng.reset(config.f);
  if (config.observer) eng.set_observer(config.observer);

  DsgdSeries series;
  Vector params = initial_params;
  auto evaluate = [&](int iteration) {
    series.eval_iterations.push_back(iteration);
    series.train_loss.push_back(dataset_loss(model, params, honest_data));
    series.test_accuracy.push_back(accuracy(model, params, test_set));
  };
  evaluate(0);

  Vector filtered;
  std::vector<Vector> momenta(shards.size(), Vector(model.param_dim()));
  std::vector<Vector> grads(shards.size(), Vector(model.param_dim()));
  for (int t = 1; t <= config.iterations; ++t) {
    eng.begin_round(t);
    eng.emit_present([&](int agent, std::span<double> out) {
      const auto i = static_cast<std::size_t>(agent);
      Vector& grad = grads[i];
      const auto batch =
          sample_batch(eng.agent_rng(agent), effective[i].num_examples(), config.batch_size);
      model.loss(params, effective[i], batch, &grad);
      if (config.momentum > 0.0) {
        // Worker momentum: the message is the agent's running average,
        // which shrinks the honest variance the filter must tolerate.
        momenta[i] *= config.momentum;
        momenta[i].add_scaled(1.0 - config.momentum, grad);
        grad = momenta[i];
      }
      if (faults[i] == AgentFault::kGradientReverse) grad *= -1.0;
      const auto src = grad.coefficients();
      std::copy(src.begin(), src.end(), out.begin());
    });
    // No transport layer: every non-straggled message reaches the server.
    eng.deliver_lossless();
    if (eng.aggregate(aggregator, filtered)) {
      eng.notify(t, params, filtered);
      params.add_scaled(-config.step_size, filtered);
    }
    if (t % config.eval_interval == 0 || t == config.iterations) evaluate(t);
  }
  series.departed_agents = eng.departed_count();
  series.final_params = std::move(params);
  return series;
}

}  // namespace abft::learn
