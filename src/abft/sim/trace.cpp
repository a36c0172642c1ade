#include "abft/sim/trace.hpp"

#include <string>

#include "abft/util/check.hpp"
#include "abft/util/csv.hpp"

namespace abft::sim {

const Vector& Trace::final_estimate() const {
  ABFT_REQUIRE(!estimates.empty(), "trace has no estimates");
  return estimates.back();
}

std::vector<double> Trace::loss_series(const opt::CostFunction& honest_aggregate) const {
  std::vector<double> out;
  out.reserve(estimates.size());
  for (const auto& x : estimates) out.push_back(honest_aggregate.value(x));
  return out;
}

std::vector<double> Trace::distance_series(const Vector& reference) const {
  std::vector<double> out;
  out.reserve(estimates.size());
  for (const auto& x : estimates) out.push_back(linalg::distance(x, reference));
  return out;
}

void Trace::write_csv(std::ostream& os) const {
  ABFT_REQUIRE(!estimates.empty(), "cannot export an empty trace");
  const int dim = estimates.front().dim();
  std::vector<std::string> header{"t"};
  for (int k = 0; k < dim; ++k) header.push_back(std::to_string(k).insert(0, 1, 'x'));
  util::CsvWriter csv(os, std::move(header));
  for (std::size_t t = 0; t < estimates.size(); ++t) {
    std::vector<double> row{static_cast<double>(t)};
    for (int k = 0; k < dim; ++k) row.push_back(estimates[t][k]);
    csv.add_numeric_row(row);
  }
}

}  // namespace abft::sim
