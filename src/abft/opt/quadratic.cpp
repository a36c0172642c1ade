#include "abft/opt/quadratic.hpp"

#include "abft/linalg/eigen_sym.hpp"
#include "abft/util/check.hpp"

namespace abft::opt {

ResidualSquaredCost::ResidualSquaredCost(Vector row, double observation)
    : row_(std::move(row)), observation_(observation) {
  ABFT_REQUIRE(row_.dim() > 0, "regression row must be non-empty");
}

double ResidualSquaredCost::value(const Vector& x) const {
  const double residual = observation_ - linalg::dot(row_, x);
  return residual * residual;
}

Vector ResidualSquaredCost::gradient(const Vector& x) const {
  // d/dx (b - a.x)^2 = -2 (b - a.x) a
  const double residual = observation_ - linalg::dot(row_, x);
  Vector grad = row_;
  grad *= -2.0 * residual;
  return grad;
}

void ResidualSquaredCost::gradient_into(const Vector& x, std::span<double> out) const {
  ABFT_REQUIRE(static_cast<int>(out.size()) == dim(), "gradient_into size mismatch");
  // dot() rejects an x of the wrong dimension; the check above sizes out.
  const double scale = -2.0 * (observation_ - linalg::dot(row_, x));
  const auto a = row_.coefficients();
  for (std::size_t k = 0; k < a.size(); ++k) out[k] = a[k] * scale;
}

double ResidualSquaredCost::gradient_lipschitz() const noexcept {
  return 2.0 * row_.squared_norm();
}

SquaredDistanceCost::SquaredDistanceCost(Vector center) : center_(std::move(center)) {
  ABFT_REQUIRE(center_.dim() > 0, "distance-cost center must be non-empty");
}

double SquaredDistanceCost::value(const Vector& x) const {
  ABFT_REQUIRE(x.dim() == dim(), "dimension mismatch");
  return linalg::squared_distance(x, center_);
}

Vector SquaredDistanceCost::gradient(const Vector& x) const {
  ABFT_REQUIRE(x.dim() == dim(), "dimension mismatch");
  return 2.0 * (x - center_);
}

void SquaredDistanceCost::gradient_into(const Vector& x, std::span<double> out) const {
  ABFT_REQUIRE(x.dim() == dim(), "dimension mismatch");
  ABFT_REQUIRE(static_cast<int>(out.size()) == dim(), "gradient_into size mismatch");
  // The two checks above put every index in range: one contiguous pass, the
  // same per-coordinate expression as gradient()'s 2.0 * (x - c).
  const auto xs = x.coefficients();
  const auto c = center_.coefficients();
  for (std::size_t k = 0; k < c.size(); ++k) out[k] = (xs[k] - c[k]) * 2.0;
}

LeastSquaresCost::LeastSquaresCost(linalg::Matrix h, Vector y)
    : h_(std::move(h)), y_(std::move(y)) {
  ABFT_REQUIRE(h_.rows() == y_.dim(), "observation/measurement shape mismatch");
  ABFT_REQUIRE(h_.rows() > 0 && h_.cols() > 0, "observation matrix must be non-empty");
}

double LeastSquaresCost::value(const Vector& x) const {
  ABFT_REQUIRE(x.dim() == dim(), "dimension mismatch");
  return (y_ - h_ * x).squared_norm();
}

Vector LeastSquaresCost::gradient(const Vector& x) const {
  ABFT_REQUIRE(x.dim() == dim(), "dimension mismatch");
  // d/dx ||y - Hx||^2 = -2 H^T (y - Hx)
  const Vector residual = y_ - h_ * x;
  Vector grad(dim());
  for (int c = 0; c < h_.cols(); ++c) {
    double sum = 0.0;
    for (int r = 0; r < h_.rows(); ++r) sum += h_(r, c) * residual[r];
    grad[c] = -2.0 * sum;
  }
  return grad;
}

double LeastSquaresCost::gradient_lipschitz() const {
  return 2.0 * linalg::largest_eigenvalue(linalg::gram(h_));
}

}  // namespace abft::opt
