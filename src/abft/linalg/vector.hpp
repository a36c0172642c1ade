// Dense real vector with the small set of operations the optimization and
// aggregation layers need: arithmetic, dot products, norms, projections.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <span>
#include <vector>

#include "abft/util/check.hpp"

namespace abft::linalg {

class Vector {
 public:
  Vector() = default;

  /// Zero vector of the given dimension (dim >= 0).
  explicit Vector(int dim);

  /// Takes ownership of the given coefficients.
  explicit Vector(std::vector<double> values) noexcept;

  Vector(std::initializer_list<double> values);

  [[nodiscard]] int dim() const noexcept { return static_cast<int>(values_.size()); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }

  // Range-checked, and inline so that index loops pay only the compare.
  double& operator[](int i) {
    ABFT_REQUIRE(0 <= i && i < dim(), "vector index out of range");
    return values_[static_cast<std::size_t>(i)];
  }
  double operator[](int i) const {
    ABFT_REQUIRE(0 <= i && i < dim(), "vector index out of range");
    return values_[static_cast<std::size_t>(i)];
  }

  [[nodiscard]] std::span<const double> coefficients() const noexcept { return values_; }
  [[nodiscard]] std::span<double> coefficients() noexcept { return values_; }

  Vector& operator+=(const Vector& other);
  Vector& operator-=(const Vector& other);
  Vector& operator*=(double scalar) noexcept;
  Vector& operator/=(double scalar);

  /// this += scalar * other  (the classic axpy).
  Vector& add_scaled(double scalar, const Vector& other);

  [[nodiscard]] double norm() const noexcept;          // Euclidean
  [[nodiscard]] double squared_norm() const noexcept;
  [[nodiscard]] double norm_inf() const noexcept;      // max |x_i|

  friend bool operator==(const Vector&, const Vector&) = default;

 private:
  std::vector<double> values_;
};

Vector operator+(Vector lhs, const Vector& rhs);
Vector operator-(Vector lhs, const Vector& rhs);
Vector operator*(double scalar, Vector v) noexcept;
Vector operator*(Vector v, double scalar) noexcept;
Vector operator/(Vector v, double scalar);
Vector operator-(Vector v) noexcept;

double dot(const Vector& a, const Vector& b);

/// Squared Euclidean distance ||a - b||^2, summed in coordinate order.
double squared_distance(const Vector& a, const Vector& b);

/// Euclidean distance ||a - b||.
double distance(const Vector& a, const Vector& b);

/// True if ||a - b||_inf <= tol.
bool approx_equal(const Vector& a, const Vector& b, double tol);

/// Arithmetic mean of a non-empty family of equal-dimension vectors.
Vector mean(std::span<const Vector> vectors);

std::ostream& operator<<(std::ostream& os, const Vector& v);

}  // namespace abft::linalg
