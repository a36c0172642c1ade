#include "abft/core/subset_solver.hpp"

#include <algorithm>

#include "abft/util/check.hpp"

namespace abft::core {

void validate_subset(const SubsetSolver& solver, const std::vector<int>& agents) {
  ABFT_REQUIRE(!agents.empty(), "subset must be non-empty");
  ABFT_REQUIRE(std::is_sorted(agents.begin(), agents.end()), "subset must be sorted");
  ABFT_REQUIRE(std::adjacent_find(agents.begin(), agents.end()) == agents.end(),
               "subset must have distinct elements");
  ABFT_REQUIRE(agents.front() >= 0 && agents.back() < solver.num_agents(),
               "subset indices out of range");
}

MeanSubsetSolver::MeanSubsetSolver(std::vector<Vector> centers) : centers_(std::move(centers)) {
  ABFT_REQUIRE(!centers_.empty(), "mean solver needs at least one center");
  const int d = centers_.front().dim();
  for (const auto& c : centers_) {
    ABFT_REQUIRE(c.dim() == d, "centers must share a dimension");
  }
}

Vector MeanSubsetSolver::solve(const std::vector<int>& agents) const {
  validate_subset(*this, agents);
  Vector sum(dim());
  for (int i : agents) sum += centers_[static_cast<std::size_t>(i)];
  return sum / static_cast<double>(agents.size());
}

CachedSubsetSolver::CachedSubsetSolver(const SubsetSolver& inner) : inner_(inner) {}

Vector CachedSubsetSolver::solve(const std::vector<int>& agents) const {
  auto it = cache_.find(agents);
  if (it != cache_.end()) return it->second;
  Vector result = inner_.solve(agents);
  cache_.emplace(agents, result);
  return result;
}

}  // namespace abft::core
