// Concrete cost families used by the paper's workloads:
//  * ResidualSquaredCost  — Q_i(x) = (b_i - a_i . x)^2, the distributed
//    linear-regression cost of Section 5 / Appendix J;
//  * SquaredDistanceCost  — Q_i(x) = ||x - c_i||^2, the robust-mean mapping
//    of Section 2.3;
//  * LeastSquaresCost     — Q_i(x) = ||y_i - H_i x||^2, the state-estimation
//    cost of Section 2.4.
#pragma once

#include "abft/linalg/matrix.hpp"
#include "abft/opt/cost.hpp"

namespace abft::opt {

class ResidualSquaredCost final : public CostFunction {
 public:
  ResidualSquaredCost(Vector row, double observation);

  [[nodiscard]] int dim() const noexcept override { return row_.dim(); }
  [[nodiscard]] double value(const Vector& x) const override;
  [[nodiscard]] Vector gradient(const Vector& x) const override;
  void gradient_into(const Vector& x, std::span<double> out) const override;

  [[nodiscard]] const Vector& row() const noexcept { return row_; }
  [[nodiscard]] double observation() const noexcept { return observation_; }

  /// Lipschitz constant of the gradient: 2 * ||a||^2 (largest eigenvalue of
  /// the Hessian 2 a a^T).
  [[nodiscard]] double gradient_lipschitz() const noexcept;

 private:
  Vector row_;
  double observation_;
};

class SquaredDistanceCost final : public CostFunction {
 public:
  explicit SquaredDistanceCost(Vector center);

  [[nodiscard]] int dim() const noexcept override { return center_.dim(); }
  [[nodiscard]] double value(const Vector& x) const override;
  [[nodiscard]] Vector gradient(const Vector& x) const override;
  void gradient_into(const Vector& x, std::span<double> out) const override;

  [[nodiscard]] const Vector& center() const noexcept { return center_; }

 private:
  Vector center_;
};

/// Q(x) = ||y - H x||^2 for an observation matrix H (k x d) and measurement
/// vector y (k) — the multi-measurement generalization of
/// ResidualSquaredCost, used by the distributed state-estimation workload
/// (paper, Section 2.4).
class LeastSquaresCost final : public CostFunction {
 public:
  LeastSquaresCost(linalg::Matrix h, Vector y);

  [[nodiscard]] int dim() const noexcept override { return h_.cols(); }
  [[nodiscard]] double value(const Vector& x) const override;
  [[nodiscard]] Vector gradient(const Vector& x) const override;

  [[nodiscard]] const linalg::Matrix& observation_matrix() const noexcept { return h_; }
  [[nodiscard]] const Vector& measurements() const noexcept { return y_; }

  /// Lipschitz constant of the gradient: 2 * lambda_max(H^T H).
  [[nodiscard]] double gradient_lipschitz() const;

 private:
  linalg::Matrix h_;
  Vector y_;
};

}  // namespace abft::opt
