// Tolerance-parity harness for the relaxed-parity AggMode::fast kernels.
//
// Fast mode abandons bit-parity with the exact batched path (vectorized
// reductions reorder floating-point sums, Bulyan's stage 2 selects with a
// window sweep instead of a second sort), so the contract it ships under is
// the one asserted here:
//
//     ||fast(batch, f) - exact(batch, f)||_inf <= tol(rule) * (1 + ||exact||_inf)
//
// per registry rule, across shapes including the headline n = 50, d = 10000
// benchmark shape for GeoMed and Bulyan.  The per-rule bounds below are the
// documented contract (see README "AggMode::exact vs fast"); they are ~100x
// above the worst drift observed on these seeds, and orders of magnitude
// below the eps-resilience envelope any workload cares about.  Rules whose
// fast path is shared with the exact path (average, cge, normclip, cwtm,
// cwmed) get near-machine-epsilon bounds so an accidental fast fork would
// fail loudly.  Krum and Multi-Krum, whose f64 Gram fill reads no mode,
// must match exact bit for bit (a zero tolerance).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "abft/agg/registry.hpp"
#include "abft/agg/threads.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft;
using agg::Vector;

/// Documented per-rule relative tolerance of fast vs exact mode.
const std::map<std::string, double>& rule_tolerances() {
  static const std::map<std::string, double> tol{
      {"average", 1e-12},    // no fast kernel: identical path
      {"cge", 1e-12},        // no fast kernel: identical path
      {"cwtm", 1e-12},       // one path in every mode: identical
      {"cwmed", 1e-12},      // one path in every mode: identical
      {"krum", 0.0},         // one f64 Gram fill in every mode: bit for bit
      {"multikrum", 0.0},    // same Gram fill, then an exact average
      {"geomed", 1e-6},      // two Weiszfeld runs stopping near the same fixed point
      {"gmom", 1e-6},        // geomed over exact bucket means
      {"bulyan", 1e-9},      // same selected multiset, laned summation
      {"normclip", 1e-12},   // no fast kernel: identical path
      {"cclip", 1e-8},       // laned distance reductions across 3-5 iterations
  };
  return tol;
}

agg::GradientBatch random_batch(util::Rng& rng, int n, int d, double scale) {
  agg::GradientBatch batch(n, d);
  for (int i = 0; i < n; ++i) {
    auto row = batch.row(i);
    for (int k = 0; k < d; ++k) row[static_cast<std::size_t>(k)] = scale * rng.normal();
  }
  return batch;
}

void expect_fast_parity(std::string_view name, const agg::GradientBatch& batch, int f,
                        const std::string& label) {
  const auto rule = agg::make_aggregator(name);
  agg::AggregatorWorkspace exact_ws;
  agg::AggregatorWorkspace fast_ws;
  fast_ws.mode = agg::AggMode::fast;
  Vector exact;
  Vector fast;
  rule->aggregate_into(exact, batch, f, exact_ws);
  rule->aggregate_into(fast, batch, f, fast_ws);
  ASSERT_EQ(exact.dim(), fast.dim()) << label;
  const double rel = rule_tolerances().at(std::string(name));
  if (rel == 0.0) {
    ASSERT_EQ(std::memcmp(exact.coefficients().data(), fast.coefficients().data(),
                          static_cast<std::size_t>(exact.dim()) * sizeof(double)),
              0)
        << label << " not bit for bit";
    return;
  }
  const double tol = rel * (1.0 + exact.norm_inf());
  for (int k = 0; k < exact.dim(); ++k) {
    ASSERT_NEAR(exact[k], fast[k], tol) << label << " coordinate " << k;
  }
}

TEST(FastParity, AllRegistryRulesAcrossShapes) {
  struct Shape {
    int n, d, f;
  };
  // Shapes straddle every routing boundary: d = 1 (fast Weiszfeld routes
  // back to exact), d around the lane width, d past the Gram tile chunk,
  // f = 0, and n = 2f + 1 style minima.
  const Shape shapes[] = {{7, 1, 1},   {11, 8, 2},  {11, 48, 2},  {15, 33, 3},
                          {12, 16, 0}, {23, 200, 5}, {27, 1100, 4}, {50, 257, 10}};
  util::Rng rng(20260731);
  for (const auto name : agg::aggregator_names()) {
    for (const auto& s : shapes) {
      const auto batch = random_batch(rng, s.n, s.d, 1.0);
      const std::string label = std::string(name) + " n=" + std::to_string(s.n) +
                                " d=" + std::to_string(s.d) + " f=" + std::to_string(s.f);
      // Some rules reject some (n, f) shapes; both modes share validation,
      // so just probe with the exact path and skip.
      try {
        agg::AggregatorWorkspace probe;
        Vector out;
        agg::make_aggregator(name)->aggregate_into(out, batch, s.f, probe);
      } catch (const std::invalid_argument&) {
        continue;
      }
      expect_fast_parity(name, batch, s.f, label);
    }
  }
}

TEST(FastParity, ScaleInvarianceOfBounds) {
  // The bounds are relative: huge- and tiny-magnitude gradients must pass
  // with the same per-rule tolerances.
  util::Rng rng(555777);
  for (const double scale : {1e-6, 1e6}) {
    for (const auto name : agg::aggregator_names()) {
      const auto batch = random_batch(rng, 15, 64, scale);
      expect_fast_parity(name, batch, 3,
                         std::string(name) + " scale=" + std::to_string(scale));
    }
  }
}

TEST(FastParity, AcceptanceShapeGeoMedAndBulyan) {
  // The headline bench shape (n = 50, d = 10000): the two rules the fast
  // mode exists for must hold their tolerance contract exactly where the
  // speedup is claimed.
  util::Rng rng(424242);
  const auto batch = random_batch(rng, 50, 10000, 1.0);
  expect_fast_parity("geomed", batch, 10, "geomed 50x10000");
  expect_fast_parity("bulyan", batch, 10, "bulyan 50x10000");
}

TEST(FastParity, DuplicateHeavyColumnsStayBounded) {
  // Quantized gradients drive the coordinate-wise kernels into their
  // duplicate fallbacks; the fast trimmed sums stay positional, so bounds
  // hold.  Bulyan is excluded: with exact ties at equal |. - med| the
  // window sweep and the exact path's (equally unstable) second sort may
  // legitimately pick different same-distance entries — that is the one
  // documented non-tolerance case, and it only arises for exactly-tied
  // distances, which continuous gradients never produce.
  util::Rng rng(31337);
  agg::GradientBatch batch(13, 24);
  for (int i = 0; i < 13; ++i) {
    auto row = batch.row(i);
    for (int k = 0; k < 24; ++k) {
      row[static_cast<std::size_t>(k)] = 0.5 * std::round(2.0 * rng.normal());
    }
  }
  for (const auto name : agg::aggregator_names()) {
    if (name == "bulyan") continue;
    expect_fast_parity(name, batch, 2, std::string(name) + " duplicates");
  }
}

TEST(FastParity, FastModeThreadCountInvariant) {
  // Relaxed parity is between modes, not between thread counts: for a fixed
  // mode the kernel partition rule still guarantees bit-identical results
  // at every width (each coordinate/pair writes its own slot and the laned
  // reductions are per-slot).
  util::Rng rng(98765);
  const auto batch = random_batch(rng, 24, 513, 1.0);
  agg::ThreadPool pool(4);
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    agg::AggregatorWorkspace serial_ws;
    serial_ws.mode = agg::AggMode::fast;
    agg::AggregatorWorkspace pooled_ws;
    pooled_ws.mode = agg::AggMode::fast;
    pooled_ws.pool = &pool;
    Vector serial;
    Vector pooled;
    rule->aggregate_into(serial, batch, 5, serial_ws);
    rule->aggregate_into(pooled, batch, 5, pooled_ws);
    EXPECT_EQ(serial, pooled) << name << ": fast-mode partition leaked into the result";
  }
}

TEST(FastParity, ExactModeIsTheDefault) {
  // A default-constructed workspace (and therefore every existing caller)
  // must stay on the exact path.
  agg::AggregatorWorkspace ws;
  EXPECT_EQ(ws.mode, agg::AggMode::exact);
  EXPECT_EQ(agg::agg_mode_from_string("exact"), agg::AggMode::exact);
  EXPECT_EQ(agg::agg_mode_from_string("fast"), agg::AggMode::fast);
  EXPECT_EQ(agg::to_string(agg::AggMode::fast), "fast");
  EXPECT_EQ(agg::to_string(agg::AggMode::exact), "exact");
  EXPECT_THROW(agg::agg_mode_from_string("fastest"), std::invalid_argument);
}

// ------------------------------ float32 lane ---------------------------------
//
// The f32 lane (mode fast + precision f32) demotes the bandwidth-bound
// kernel inputs once and keeps accumulation, selection state and emission in
// f64.  Its contract is the same inequality as fast-vs-exact but with wider
// per-rule envelopes dominated by the one demotion (~1.2e-7 relative per
// entry) plus float-lane Gram accumulation:
//
//     ||f32(batch, f) - exact(batch, f)||_inf <= tol32(rule) * (1 + ||exact||_inf)
//
// Only the Gram fill (krum, multikrum, bulyan stage 1) has an f32 lane.
// Every other rule ignores the knob, so its f32 bound is its fast bound
// (cwtm and cwmed run one path in every mode, so theirs is near machine
// epsilon).

/// Documented per-rule relative tolerance of the f32 lane vs exact mode.
const std::map<std::string, double>& rule_tolerances_f32() {
  static const std::map<std::string, double> tol{
      {"average", 1e-12},    // no f32 kernel: identical to the f64 fast path
      {"cge", 1e-12},        // no f32 kernel: identical to the f64 fast path
      {"cwtm", 1e-12},       // no f32 kernel: identical to exact
      {"cwmed", 1e-12},      // no f32 kernel: identical to exact
      {"krum", 1e-6},        // f32 Gram scores select an exact f64 row
      {"multikrum", 1e-6},   // same selection, f64 average
      {"geomed", 1e-6},      // no f32 kernel: identical to the f64 fast path
      {"gmom", 1e-6},        // no f32 kernel: identical to the f64 fast path
      {"bulyan", 2e-5},      // f32 stage-1 scores, f64 stage-2 columns
      {"normclip", 1e-12},   // no f32 kernel: identical to the f64 fast path
      {"cclip", 1e-8},       // no f32 kernel: identical to the f64 fast path
  };
  return tol;
}

void expect_f32_parity(std::string_view name, const agg::GradientBatch& batch, int f,
                       const std::string& label) {
  const auto rule = agg::make_aggregator(name);
  agg::AggregatorWorkspace exact_ws;
  agg::AggregatorWorkspace f32_ws;
  f32_ws.mode = agg::AggMode::fast;
  f32_ws.precision = agg::Precision::f32;
  Vector exact;
  Vector lane;
  rule->aggregate_into(exact, batch, f, exact_ws);
  rule->aggregate_into(lane, batch, f, f32_ws);
  ASSERT_EQ(exact.dim(), lane.dim()) << label;
  const double tol =
      rule_tolerances_f32().at(std::string(name)) * (1.0 + exact.norm_inf());
  for (int k = 0; k < exact.dim(); ++k) {
    ASSERT_NEAR(exact[k], lane[k], tol) << label << " coordinate " << k;
  }
}

TEST(F32Lane, AllRegistryRulesAcrossShapes) {
  struct Shape {
    int n, d, f;
  };
  // The same routing-boundary shapes as the f64 suite: d = 1, d around the
  // 16-float lane width of the f32 Gram kernel, d past the Gram
  // chunk, f = 0, and thin-n minima.
  const Shape shapes[] = {{7, 1, 1},   {11, 8, 2},  {11, 48, 2},  {15, 33, 3},
                          {12, 16, 0}, {23, 200, 5}, {27, 1100, 4}, {50, 257, 10}};
  util::Rng rng(20260801);
  for (const auto name : agg::aggregator_names()) {
    for (const auto& s : shapes) {
      const auto batch = random_batch(rng, s.n, s.d, 1.0);
      const std::string label = std::string(name) + " f32 n=" + std::to_string(s.n) +
                                " d=" + std::to_string(s.d) + " f=" + std::to_string(s.f);
      try {
        agg::AggregatorWorkspace probe;
        Vector out;
        agg::make_aggregator(name)->aggregate_into(out, batch, s.f, probe);
      } catch (const std::invalid_argument&) {
        continue;
      }
      expect_f32_parity(name, batch, s.f, label);
    }
  }
}

TEST(F32Lane, ScaleInvarianceOfBounds) {
  // The f32 envelopes are relative too: demotion error scales with the
  // magnitude, so 1e-6- and 1e6-scaled gradients pass the same bounds
  // (both far inside float's exponent range).
  util::Rng rng(667788);
  for (const double scale : {1e-6, 1e6}) {
    for (const auto name : agg::aggregator_names()) {
      const auto batch = random_batch(rng, 15, 64, scale);
      expect_f32_parity(name, batch, 3,
                        std::string(name) + " f32 scale=" + std::to_string(scale));
    }
  }
}

TEST(F32Lane, AcceptanceShapeHoldsEnvelopes) {
  // The headline bandwidth-bound shape (n = 50, d = 10000) — where the f32
  // lane's speedup is claimed, its envelopes must hold.
  util::Rng rng(515151);
  const auto batch = random_batch(rng, 50, 10000, 1.0);
  expect_f32_parity("krum", batch, 10, "krum f32 50x10000");
  expect_f32_parity("cwtm", batch, 10, "cwtm f32 50x10000");
  expect_f32_parity("geomed", batch, 10, "geomed f32 50x10000");
  expect_f32_parity("bulyan", batch, 10, "bulyan f32 50x10000");
}

TEST(F32Lane, ClusteredAttackDriftStaysBounded) {
  // Seeded drift harness on adversarial geometry: honest rows cluster
  // around a shared center, f attack rows sit far outside at a large
  // magnitude.  This stresses exactly what demotion could break — large
  // attack coordinates quantizing against small honest ones in the same
  // Gram dots / column selections — so every rule must hold its f32
  // envelope against the exact aggregate here, not just on i.i.d. noise.
  for (const std::uint64_t seed : {1001ULL, 2002ULL, 3003ULL}) {
    util::Rng rng(seed);
    const int n = 25, d = 300, f = 5;
    agg::GradientBatch batch(n, d);
    std::vector<double> center(static_cast<std::size_t>(d));
    for (int k = 0; k < d; ++k) center[static_cast<std::size_t>(k)] = rng.normal();
    for (int i = 0; i < n - f; ++i) {
      auto row = batch.row(i);
      for (int k = 0; k < d; ++k) {
        row[static_cast<std::size_t>(k)] =
            center[static_cast<std::size_t>(k)] + 0.1 * rng.normal();
      }
    }
    for (int i = n - f; i < n; ++i) {  // attack rows: far, large magnitude
      auto row = batch.row(i);
      for (int k = 0; k < d; ++k) {
        row[static_cast<std::size_t>(k)] = 50.0 + 10.0 * rng.normal();
      }
    }
    for (const auto name : agg::aggregator_names()) {
      expect_f32_parity(name, batch, f,
                        std::string(name) + " f32 attack seed=" + std::to_string(seed));
    }
  }
}

TEST(F32Lane, ThreadCountInvariant) {
  // The f32 lane inherits the one-writer-per-cell partition and fixed-order
  // laned reductions, so for a fixed (mode, precision) the result is
  // bit-identical at every parallel width.
  util::Rng rng(191919);
  const auto batch = random_batch(rng, 24, 513, 1.0);
  agg::ThreadPool pool(4);
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    agg::AggregatorWorkspace serial_ws;
    serial_ws.mode = agg::AggMode::fast;
    serial_ws.precision = agg::Precision::f32;
    agg::AggregatorWorkspace pooled_ws;
    pooled_ws.mode = agg::AggMode::fast;
    pooled_ws.precision = agg::Precision::f32;
    pooled_ws.pool = &pool;
    Vector serial;
    Vector pooled;
    rule->aggregate_into(serial, batch, 5, serial_ws);
    rule->aggregate_into(pooled, batch, 5, pooled_ws);
    EXPECT_EQ(serial, pooled) << name << ": f32-lane partition leaked into the result";
  }
}

TEST(F32Lane, OnlyTheDistanceKernelsFork) {
  // The rules without an f32 kernel must ignore the knob bit for bit in
  // fast mode, at shapes where the f64 fast path runs its laned kernels.
  util::Rng rng(303030);
  for (const int d : {33, 700}) {
    const auto batch = random_batch(rng, 21, d, 1.0);
    for (const auto name : agg::aggregator_names()) {
      if (name == "krum" || name == "multikrum" || name == "bulyan") continue;
      const auto rule = agg::make_aggregator(name);
      agg::AggregatorWorkspace f64_ws;
      f64_ws.mode = agg::AggMode::fast;
      agg::AggregatorWorkspace f32_ws;
      f32_ws.mode = agg::AggMode::fast;
      f32_ws.precision = agg::Precision::f32;
      Vector f64_out;
      Vector f32_out;
      rule->aggregate_into(f64_out, batch, 4, f64_ws);
      rule->aggregate_into(f32_out, batch, 4, f32_ws);
      EXPECT_EQ(f64_out, f32_out) << name << " d=" << d << ": precision knob forked the rule";
    }
  }
}

TEST(F32Lane, PrecisionKnobDefaultsAndGating) {
  // f64 is the default; the lane only engages under fast mode, so an exact
  // workspace carrying precision f32 still runs the bit-exact path.
  agg::AggregatorWorkspace ws;
  EXPECT_EQ(ws.precision, agg::Precision::f64);
  EXPECT_FALSE(ws.f32_lane());
  ws.precision = agg::Precision::f32;
  EXPECT_FALSE(ws.f32_lane());  // mode still exact
  ws.mode = agg::AggMode::fast;
  EXPECT_TRUE(ws.f32_lane());
  EXPECT_EQ(agg::precision_from_string("f64"), agg::Precision::f64);
  EXPECT_EQ(agg::precision_from_string("f32"), agg::Precision::f32);
  EXPECT_EQ(agg::to_string(agg::Precision::f64), "f64");
  EXPECT_EQ(agg::to_string(agg::Precision::f32), "f32");
  EXPECT_THROW(agg::precision_from_string("f16"), std::invalid_argument);

  // precision f32 under exact mode is bit-identical to plain exact: the
  // knob must not fork the exact path.
  util::Rng rng(272727);
  const auto batch = random_batch(rng, 13, 96, 1.0);
  for (const auto name : agg::aggregator_names()) {
    const auto rule = agg::make_aggregator(name);
    agg::AggregatorWorkspace plain_ws;
    agg::AggregatorWorkspace knob_ws;
    knob_ws.precision = agg::Precision::f32;  // mode stays exact
    Vector plain;
    Vector knob;
    rule->aggregate_into(plain, batch, 2, plain_ws);
    rule->aggregate_into(knob, batch, 2, knob_ws);
    EXPECT_EQ(plain, knob) << name << ": precision knob forked the exact path";
  }
}

}  // namespace
