// Extension experiment X1 (DESIGN.md): sweep the observation-noise level of
// randomized regression instances, measure the induced (2f, eps)-redundancy
// eps, and chart how the final DGD error of CGE and CWTM scales with eps —
// the D*eps error model of Theorems 4/5/6 — together with the theorem
// bounds where their hypotheses hold.
//
// The run grid (rules x seeds x noise levels) is the committed sweep spec
// specs/sweep_epsilon.json over the scenario layer's random_regression
// problem; this binary adds the redundancy / theorem-bound analysis, which
// it computes on the very instances the sweep ran
// (scenario::random_regression_instance is deterministic in the spec).
#include <iostream>
#include <map>

#include "abft/core/bounds.hpp"
#include "abft/core/redundancy.hpp"
#include "abft/regress/problem.hpp"
#include "abft/sweep/sweep.hpp"
#include "abft/util/check.hpp"
#include "abft/util/stats.hpp"
#include "abft/util/table.hpp"

using namespace abft;

int main() {
  const auto spec = sweep::load_sweep_file(std::string(ABFT_SPEC_DIR "/sweep_epsilon.json"));
  const auto outcome = sweep::run_sweep(spec);

  // Fold the grid: per noise level, the mean over seeds of eps, the two
  // rules' final errors, and the theorem bounds.  eps / mu / gamma depend
  // only on (noise, seed), so compute them once per instance (on the cge
  // pass) from the run's own spec.
  struct NoiseRow {
    std::vector<double> epsilons, cge_errors, cwtm_errors, t4_bounds, t5_bounds;
  };
  std::vector<std::string> noise_order;
  std::map<std::string, NoiseRow> rows;
  for (const auto& run : outcome.runs) {
    const std::string noise = run.axis_value("variants");
    if (!rows.count(noise)) noise_order.push_back(noise);
    auto& row = rows[noise];
    ABFT_REQUIRE(run.result.distance_to_reference.has_value(),
                 "sweep_epsilon.json runs must have a closed-form honest reference");
    const double error = *run.result.distance_to_reference;
    if (run.axis_value("aggregator") == "cge") {
      row.cge_errors.push_back(error);
      const auto& rspec = run.result.spec;
      const auto problem = scenario::random_regression_instance(rspec);
      const regress::RegressionSubsetSolver solver(problem);
      const double eps = core::measure_redundancy(solver, rspec.f).epsilon;
      std::vector<int> honest;
      for (int i = rspec.f; i < rspec.num_agents; ++i) honest.push_back(i);
      const double mu = problem.mu(honest);
      const double gamma = problem.gamma(honest);
      const auto t4 = core::cge_bound_theorem4(rspec.num_agents, rspec.f, mu, gamma);
      const auto t5 = core::cge_bound_theorem5(rspec.num_agents, rspec.f, mu, gamma);
      row.epsilons.push_back(eps);
      row.t4_bounds.push_back(t4.valid ? t4.factor * eps : -1.0);
      row.t5_bounds.push_back(t5.valid ? t5.factor * eps : -1.0);
    } else {
      row.cwtm_errors.push_back(error);
    }
  }

  std::cout << "X1 — noise -> redundancy eps -> final error (n = 8, f = 1, gradient-reverse,\n"
               "mean over " << rows.begin()->second.cge_errors.size()
            << " seeds; grid: specs/sweep_epsilon.json)\n\n";

  util::Table table({"noise", "eps", "err(cge)", "err(cwtm)", "thm4 D*eps", "thm5 D*eps"});
  auto cell = [](double v) {
    return v < 0.0 ? std::string("n/a") : util::format_scientific(v, 2);
  };
  for (const auto& noise : noise_order) {
    const auto& row = rows.at(noise);
    table.add_row({noise, util::format_scientific(util::mean(row.epsilons), 2),
                   util::format_scientific(util::mean(row.cge_errors), 2),
                   util::format_scientific(util::mean(row.cwtm_errors), 2),
                   cell(util::mean(row.t4_bounds)), cell(util::mean(row.t5_bounds))});
  }
  table.print(std::cout);
  std::cout << "\nReading the table: eps grows about linearly with noise, and for noise > 0\n"
               "CGE's error tracks eps.  CWTM's error does not: it stays near 0.1 down to\n"
               "noise = 0, so a noiseless instance does not make this finite run exact.\n"
               "For noise > 0 both errors sit below the D*eps columns; at noise = 0 they sit\n"
               "above them, because the theorems bound the asymptotic error and these runs\n"
               "stop after a fixed number of iterations.  Nothing here checks a bound (see\n"
               "ROADMAP.md, direction 8).\n";
  return 0;
}
