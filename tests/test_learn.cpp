// Tests for the learning workload: dataset generation/sharding/poisoning,
// model gradients against finite differences, and D-SGD behaviour with and
// without faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "abft/agg/average.hpp"
#include "abft/agg/cge.hpp"
#include "abft/agg/cwtm.hpp"
#include "abft/learn/dataset.hpp"
#include "abft/learn/dsgd.hpp"
#include "abft/learn/mlp.hpp"
#include "abft/learn/softmax.hpp"

namespace {

using namespace abft;
using linalg::Vector;

learn::Dataset tiny_dataset(int classes, int per_class, std::uint64_t seed,
                            double noise = 0.25) {
  learn::SyntheticOptions options;
  options.num_classes = classes;
  options.feature_dim = 8;
  options.examples_per_class = per_class;
  options.noise_stddev = noise;
  util::Rng rng(seed);
  return learn::make_synthetic(options, rng);
}

TEST(Dataset, SyntheticShapeAndLabels) {
  const auto data = tiny_dataset(4, 10, 1);
  EXPECT_EQ(data.num_examples(), 40);
  EXPECT_EQ(data.feature_dim(), 8);
  EXPECT_EQ(data.num_classes, 4);
  std::set<int> labels(data.labels.begin(), data.labels.end());
  EXPECT_EQ(labels.size(), 4u);
  for (int y : data.labels) {
    EXPECT_GE(y, 0);
    EXPECT_LT(y, 4);
  }
}

TEST(Dataset, GenerationIsDeterministic) {
  const auto a = tiny_dataset(3, 5, 7);
  const auto b = tiny_dataset(3, 5, 7);
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.features, b.features);
}

TEST(Dataset, ShardsPartitionTheData) {
  const auto data = tiny_dataset(4, 10, 2);
  util::Rng rng(9);
  const auto shards = learn::shard(data, 5, rng);
  ASSERT_EQ(shards.size(), 5u);
  int total = 0;
  for (const auto& s : shards) total += s.num_examples();
  EXPECT_EQ(total, data.num_examples());
  for (const auto& s : shards) EXPECT_EQ(s.num_classes, 4);
}

TEST(Dataset, ShardDirichletInfiniteAlphaIsTheIidSplitBitIdentically) {
  // alpha -> infinity must be *today's* split, not merely statistically
  // similar: shard_dirichlet(inf) delegates to shard() on the same rng, so
  // the scenario layer's dirichlet_alpha default changes nothing.
  const auto data = tiny_dataset(4, 12, 3);
  util::Rng iid_rng(21);
  util::Rng dirichlet_rng(21);
  const auto iid = learn::shard(data, 5, iid_rng);
  const auto skewless = learn::shard_dirichlet(
      data, 5, std::numeric_limits<double>::infinity(), dirichlet_rng);
  ASSERT_EQ(iid.size(), skewless.size());
  for (std::size_t s = 0; s < iid.size(); ++s) {
    ASSERT_EQ(iid[s].labels, skewless[s].labels) << "shard " << s;
    ASSERT_EQ(iid[s].num_examples(), skewless[s].num_examples());
    for (int i = 0; i < iid[s].num_examples(); ++i) {
      for (int k = 0; k < iid[s].feature_dim(); ++k) {
        ASSERT_EQ(iid[s].features(i, k), skewless[s].features(i, k))
            << "shard " << s << " example " << i;
      }
    }
  }
  // And the two rngs stayed in lockstep (identical consumption).
  EXPECT_EQ(iid_rng.next_u64(), dirichlet_rng.next_u64());
}

TEST(Dataset, ShardDirichletPartitionsAndSkewsLabels) {
  const auto data = tiny_dataset(4, 30, 7);
  util::Rng rng(13);
  const auto shards = learn::shard_dirichlet(data, 4, 0.05, rng);
  ASSERT_EQ(shards.size(), 4u);
  int total = 0;
  for (const auto& s : shards) {
    EXPECT_GT(s.num_examples(), 0);  // every shard stays samplable
    total += s.num_examples();
  }
  EXPECT_EQ(total, data.num_examples());

  // Label concentration: at alpha = 0.05 a shard's dominant class should
  // hold far more than the iid ~1/4 share, on average.
  double dominant_share = 0.0;
  for (const auto& s : shards) {
    std::vector<int> counts(4, 0);
    for (const int y : s.labels) ++counts[static_cast<std::size_t>(y)];
    dominant_share += static_cast<double>(*std::max_element(counts.begin(), counts.end())) /
                      static_cast<double>(s.num_examples());
  }
  dominant_share /= 4.0;
  EXPECT_GT(dominant_share, 0.5);

  // Determinism: the same seed deals the same shards.
  util::Rng again(13);
  const auto repeat = learn::shard_dirichlet(data, 4, 0.05, again);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    EXPECT_EQ(shards[s].labels, repeat[s].labels) << "shard " << s;
  }
}

TEST(Rng, GammaAndDirichletMomentsAreSane) {
  util::Rng rng(77);
  // Gamma(k) has mean k; 4000 samples put the sample mean within ~10%.
  for (const double shape : {0.5, 1.0, 4.0}) {
    double sum = 0.0;
    for (int i = 0; i < 4000; ++i) sum += rng.gamma(shape);
    EXPECT_NEAR(sum / 4000.0, shape, 0.1 * shape + 0.02) << "shape " << shape;
  }
  const auto simplex = rng.dirichlet(0.3, 6);
  double total = 0.0;
  for (const double w : simplex) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Dataset, LabelFlipIsAnInvolution) {
  const auto data = tiny_dataset(10, 3, 3);
  const auto flipped = learn::label_flipped(data);
  for (std::size_t i = 0; i < data.labels.size(); ++i) {
    EXPECT_EQ(flipped.labels[i], 9 - data.labels[i]);
  }
  const auto twice = learn::label_flipped(flipped);
  EXPECT_EQ(twice.labels, data.labels);
  EXPECT_EQ(twice.features, data.features);
}

TEST(Dataset, SelectExamplesExtractsRows) {
  const auto data = tiny_dataset(2, 4, 4);
  const auto sub = learn::select_examples(data, {0, 3});
  EXPECT_EQ(sub.num_examples(), 2);
  EXPECT_EQ(sub.labels[1], data.labels[3]);
  EXPECT_THROW(learn::select_examples(data, {99}), std::invalid_argument);
}

TEST(Dataset, DifficultyPresetsDiffer) {
  EXPECT_LT(learn::synth_digits_options().noise_stddev,
            learn::synth_fashion_options().noise_stddev);
}

template <typename ModelType>
void check_gradient_against_finite_differences(const ModelType& model, const Vector& params,
                                               const learn::Dataset& data) {
  const std::vector<int> batch{0, 1, 2};
  Vector analytic(model.param_dim());
  model.loss(params, data, batch, &analytic);
  Vector probe = params;
  const double h = 1e-6;
  // Spot-check a spread of coordinates (full sweep is O(d^2)).
  for (int k = 0; k < model.param_dim(); k += std::max(1, model.param_dim() / 17)) {
    const double original = probe[k];
    probe[k] = original + h;
    const double plus = model.loss(probe, data, batch, nullptr);
    probe[k] = original - h;
    const double minus = model.loss(probe, data, batch, nullptr);
    probe[k] = original;
    EXPECT_NEAR(analytic[k], (plus - minus) / (2.0 * h), 1e-4) << "coordinate " << k;
  }
}

TEST(Softmax, GradientMatchesFiniteDifferences) {
  const auto data = tiny_dataset(3, 4, 11);
  const learn::SoftmaxRegression model(data.feature_dim(), data.num_classes);
  util::Rng rng(12);
  Vector params(model.param_dim());
  for (int i = 0; i < params.dim(); ++i) params[i] = 0.1 * rng.normal();
  check_gradient_against_finite_differences(model, params, data);
}

TEST(Softmax, LossDecreasesUnderGradientSteps) {
  const auto data = tiny_dataset(3, 20, 13);
  const learn::SoftmaxRegression model(data.feature_dim(), data.num_classes);
  Vector params(model.param_dim());
  std::vector<int> all(static_cast<std::size_t>(data.num_examples()));
  std::iota(all.begin(), all.end(), 0);
  Vector grad(model.param_dim());
  double last = model.loss(params, data, all, &grad);
  for (int step = 0; step < 30; ++step) {
    params.add_scaled(-0.5, grad);
    const double now = model.loss(params, data, all, &grad);
    EXPECT_LE(now, last + 1e-9);
    last = now;
  }
  EXPECT_GT(learn::accuracy(model, params, data), 0.9);
}

TEST(Softmax, UniformParamsGiveLogCLoss) {
  const auto data = tiny_dataset(4, 5, 14);
  const learn::SoftmaxRegression model(data.feature_dim(), data.num_classes);
  const Vector zeros(model.param_dim());
  EXPECT_NEAR(learn::dataset_loss(model, zeros, data), std::log(4.0), 1e-9);
}

TEST(Mlp, GradientMatchesFiniteDifferences) {
  const auto data = tiny_dataset(3, 4, 15);
  const learn::Mlp model(data.feature_dim(), 6, data.num_classes);
  util::Rng rng(16);
  const Vector params = model.initial_params(rng);
  check_gradient_against_finite_differences(model, params, data);
}

TEST(Mlp, ParamDimAccountsForAllLayers) {
  const learn::Mlp model(8, 6, 3);
  EXPECT_EQ(model.param_dim(), 6 * 8 + 6 + 3 * 6 + 3);
}

TEST(Mlp, TrainsAboveChance) {
  const auto data = tiny_dataset(3, 30, 17, 0.2);
  const learn::Mlp model(data.feature_dim(), 8, data.num_classes);
  util::Rng rng(18);
  Vector params = model.initial_params(rng);
  std::vector<int> all(static_cast<std::size_t>(data.num_examples()));
  std::iota(all.begin(), all.end(), 0);
  Vector grad(model.param_dim());
  for (int step = 0; step < 150; ++step) {
    model.loss(params, data, all, &grad);
    params.add_scaled(-0.5, grad);
  }
  EXPECT_GT(learn::accuracy(model, params, data), 0.8);
}

TEST(Accuracy, PerfectAndChanceBaselines) {
  const auto data = tiny_dataset(2, 10, 19, 0.05);
  const learn::SoftmaxRegression model(data.feature_dim(), data.num_classes);
  const Vector zeros(model.param_dim());
  // Zero params predict class 0 everywhere: accuracy = share of class 0.
  const double acc = learn::accuracy(model, zeros, data);
  EXPECT_NEAR(acc, 0.5, 1e-9);
}

// --------------------------- D-SGD -----------------------------------------

struct DsgdFixture {
  learn::Dataset train;
  learn::Dataset test;
  learn::SoftmaxRegression model;

  DsgdFixture() : model(8, 4) {
    const auto full = tiny_dataset(4, 50, 21, 0.25);
    util::Rng rng(22);
    auto split = learn::split_train_test(full, 0.2, rng);
    train = std::move(split.train);
    test = std::move(split.test);
  }

  [[nodiscard]] std::vector<learn::Dataset> shards(int k) {
    util::Rng rng(23);
    return learn::shard(train, k, rng);
  }

  [[nodiscard]] learn::DsgdConfig config(int iterations, int f) const {
    learn::DsgdConfig cfg;
    cfg.iterations = iterations;
    cfg.batch_size = 16;
    cfg.step_size = 0.05;
    cfg.f = f;
    cfg.eval_interval = 10;
    cfg.seed = 77;
    return cfg;
  }
};

TEST(Dsgd, FaultFreeLearns) {
  DsgdFixture fx;
  const agg::AverageAggregator average;
  const auto series =
      learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10),
                      std::vector<learn::AgentFault>(10, learn::AgentFault::kHonest), fx.test,
                      average, fx.config(300, 0));
  EXPECT_GT(series.test_accuracy.back(), 0.8);
  EXPECT_LT(series.train_loss.back(), series.train_loss.front());
  EXPECT_EQ(series.eval_iterations.front(), 0);
  EXPECT_EQ(series.eval_iterations.back(), 300);
}

TEST(Dsgd, CgeBeatsPlainAveragingUnderGradientReverse) {
  // Appendix K, n = 10, f = 3: plain averaging degrades badly under
  // gradient-reverse while CGE tracks the fault-free curve.
  DsgdFixture fx;
  std::vector<learn::AgentFault> faults(10, learn::AgentFault::kHonest);
  for (int i = 0; i < 3; ++i) faults[i] = learn::AgentFault::kGradientReverse;
  const agg::AverageAggregator average;
  const auto broken = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10),
                                      faults, fx.test, average, fx.config(300, 3));
  const agg::CgeAggregator cge;
  const auto robust = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10),
                                      faults, fx.test, cge, fx.config(300, 3));
  EXPECT_GT(robust.test_accuracy.back(), broken.test_accuracy.back() + 0.15);
}

TEST(Dsgd, LabelFlipToleratedByRobustFilters) {
  DsgdFixture fx;
  std::vector<learn::AgentFault> faults(10, learn::AgentFault::kHonest);
  for (int i = 0; i < 3; ++i) faults[i] = learn::AgentFault::kLabelFlip;
  const agg::CwtmAggregator cwtm;
  const auto series_cwtm = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10),
                                           faults, fx.test, cwtm, fx.config(300, 3));
  EXPECT_GT(series_cwtm.test_accuracy.back(), 0.7);
  const agg::CgeAggregator cge;
  const auto series_cge = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10),
                                          faults, fx.test, cge, fx.config(300, 3));
  EXPECT_GT(series_cge.test_accuracy.back(), 0.7);
}

TEST(Dsgd, DeterministicForFixedSeed) {
  DsgdFixture fx;
  const agg::CwtmAggregator cwtm;
  const std::vector<learn::AgentFault> faults(5, learn::AgentFault::kHonest);
  const auto a = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(5), faults,
                                 fx.test, cwtm, fx.config(40, 1));
  const auto b = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(5), faults,
                                 fx.test, cwtm, fx.config(40, 1));
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_EQ(a.train_loss, b.train_loss);
}

TEST(Dsgd, ValidatesConfiguration) {
  DsgdFixture fx;
  const agg::AverageAggregator average;
  const std::vector<learn::AgentFault> faults(5, learn::AgentFault::kHonest);
  EXPECT_THROW(learn::run_dsgd(fx.model, Vector(3), fx.shards(5), faults, fx.test, average,
                               fx.config(10, 0)),
               std::invalid_argument);
  EXPECT_THROW(learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(4), faults,
                               fx.test, average, fx.config(10, 0)),
               std::invalid_argument);
  auto cfg = fx.config(10, 0);
  cfg.f = 5;
  EXPECT_THROW(learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(5), faults,
                               fx.test, average, cfg),
               std::invalid_argument);
}

TEST(Dataset, NonIidShardingExtremes) {
  const auto data = tiny_dataset(4, 25, 31);
  util::Rng rng(32);
  // h = 1: label-sorted chunks — most shards should be single-class.
  const auto sorted_shards = learn::shard_non_iid(data, 4, 1.0, rng);
  int single_class = 0;
  for (const auto& s : sorted_shards) {
    std::set<int> classes(s.labels.begin(), s.labels.end());
    if (classes.size() == 1) ++single_class;
  }
  EXPECT_GE(single_class, 3);
  // h = 0: iid — every shard should see most classes.
  const auto iid_shards = learn::shard_non_iid(data, 4, 0.0, rng);
  for (const auto& s : iid_shards) {
    std::set<int> classes(s.labels.begin(), s.labels.end());
    EXPECT_GE(classes.size(), 3u);
  }
}

TEST(Dataset, NonIidShardingPartitions) {
  const auto data = tiny_dataset(3, 20, 33);
  util::Rng rng(34);
  for (const double h : {0.0, 0.5, 1.0}) {
    const auto shards = learn::shard_non_iid(data, 5, h, rng);
    int total = 0;
    for (const auto& s : shards) total += s.num_examples();
    EXPECT_EQ(total, data.num_examples());
  }
  EXPECT_THROW(learn::shard_non_iid(data, 5, 1.5, rng), std::invalid_argument);
}

TEST(Dataset, TrainTestSplitPartitionsAndValidates) {
  const auto data = tiny_dataset(3, 20, 35);
  util::Rng rng(36);
  const auto split = learn::split_train_test(data, 0.25, rng);
  EXPECT_EQ(split.train.num_examples() + split.test.num_examples(), data.num_examples());
  EXPECT_EQ(split.test.num_examples(), 15);
  EXPECT_THROW(learn::split_train_test(data, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(learn::split_train_test(data, 1.0, rng), std::invalid_argument);
}

TEST(Dsgd, MomentumLearnsAndIsDeterministic) {
  DsgdFixture fx;
  const agg::CgeAggregator cge;
  std::vector<learn::AgentFault> faults(10, learn::AgentFault::kHonest);
  for (int i = 0; i < 3; ++i) faults[static_cast<std::size_t>(i)] = learn::AgentFault::kGradientReverse;
  auto cfg = fx.config(300, 3);
  cfg.momentum = 0.9;
  const auto a = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10), faults,
                                 fx.test, cge, cfg);
  const auto b = learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10), faults,
                                 fx.test, cge, cfg);
  EXPECT_EQ(a.final_params, b.final_params);
  EXPECT_GT(a.test_accuracy.back(), 0.7);
  EXPECT_THROW((cfg.momentum = 1.0,
                learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(10), faults,
                                fx.test, cge, cfg)),
               std::invalid_argument);
}

TEST(Dsgd, AllFaultyRejected) {
  DsgdFixture fx;
  const agg::AverageAggregator average;
  const std::vector<learn::AgentFault> faults(5, learn::AgentFault::kLabelFlip);
  EXPECT_THROW(learn::run_dsgd(fx.model, Vector(fx.model.param_dim()), fx.shards(5), faults,
                               fx.test, average, fx.config(10, 0)),
               std::invalid_argument);
}

}  // namespace
