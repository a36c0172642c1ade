// Subset minimization oracle: the redundancy analyzer (Definition 3) and the
// Theorem-2 exhaustive algorithm both need argmin_x sum_{i in S} Q_i(x) for
// many agent subsets S.  Workloads provide closed-form solvers (least
// squares for regression and state estimation, the centroid for robust
// mean).
#pragma once

#include <map>
#include <vector>

#include "abft/linalg/vector.hpp"

namespace abft::core {

using linalg::Vector;

class SubsetSolver {
 public:
  virtual ~SubsetSolver() = default;

  [[nodiscard]] virtual int num_agents() const noexcept = 0;
  [[nodiscard]] virtual int dim() const noexcept = 0;

  /// Unique minimizer of sum_{i in agents} Q_i(x).  `agents` must be a
  /// non-empty sorted list of distinct indices in [0, num_agents()).
  [[nodiscard]] virtual Vector solve(const std::vector<int>& agents) const = 0;
};

/// Validates the subset argument shared by all implementations.
void validate_subset(const SubsetSolver& solver, const std::vector<int>& agents);

/// Closed-form solver for the robust-mean mapping of Section 2.3:
/// Q_i(x) = ||x - c_i||^2, so argmin over S is the centroid of {c_i}.
class MeanSubsetSolver final : public SubsetSolver {
 public:
  explicit MeanSubsetSolver(std::vector<Vector> centers);

  [[nodiscard]] int num_agents() const noexcept override {
    return static_cast<int>(centers_.size());
  }
  [[nodiscard]] int dim() const noexcept override { return centers_.front().dim(); }
  [[nodiscard]] Vector solve(const std::vector<int>& agents) const override;

  [[nodiscard]] const std::vector<Vector>& centers() const noexcept { return centers_; }

 private:
  std::vector<Vector> centers_;
};

/// Memoizing decorator: subset minimizations repeat heavily inside the
/// redundancy sweep and the exhaustive algorithm.
class CachedSubsetSolver final : public SubsetSolver {
 public:
  explicit CachedSubsetSolver(const SubsetSolver& inner);

  [[nodiscard]] int num_agents() const noexcept override { return inner_.num_agents(); }
  [[nodiscard]] int dim() const noexcept override { return inner_.dim(); }
  [[nodiscard]] Vector solve(const std::vector<int>& agents) const override;

  [[nodiscard]] std::size_t cache_size() const noexcept { return cache_.size(); }

 private:
  const SubsetSolver& inner_;
  mutable std::map<std::vector<int>, Vector> cache_;
};

}  // namespace abft::core
