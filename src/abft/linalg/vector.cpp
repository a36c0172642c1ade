#include "abft/linalg/vector.hpp"

#include <cmath>
#include <ostream>

#include "abft/util/check.hpp"

namespace abft::linalg {

Vector::Vector(int dim) {
  ABFT_REQUIRE(dim >= 0, "vector dimension must be >= 0");
  values_.assign(static_cast<std::size_t>(dim), 0.0);
}

Vector::Vector(std::vector<double> values) noexcept : values_(std::move(values)) {}

Vector::Vector(std::initializer_list<double> values) : values_(values) {}

Vector& Vector::operator+=(const Vector& other) {
  ABFT_REQUIRE(dim() == other.dim(), "vector dimension mismatch in +=");
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other.values_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  ABFT_REQUIRE(dim() == other.dim(), "vector dimension mismatch in -=");
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] -= other.values_[i];
  return *this;
}

Vector& Vector::operator*=(double scalar) noexcept {
  for (auto& v : values_) v *= scalar;
  return *this;
}

Vector& Vector::operator/=(double scalar) {
  ABFT_REQUIRE(scalar != 0.0, "vector division by zero");
  return (*this) *= (1.0 / scalar);
}

Vector& Vector::add_scaled(double scalar, const Vector& other) {
  ABFT_REQUIRE(dim() == other.dim(), "vector dimension mismatch in add_scaled");
  for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += scalar * other.values_[i];
  return *this;
}

double Vector::norm() const noexcept { return std::sqrt(squared_norm()); }

double Vector::squared_norm() const noexcept {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return sum;
}

double Vector::norm_inf() const noexcept {
  double best = 0.0;
  for (double v : values_) best = std::max(best, std::abs(v));
  return best;
}

Vector operator+(Vector lhs, const Vector& rhs) { return lhs += rhs; }
Vector operator-(Vector lhs, const Vector& rhs) { return lhs -= rhs; }
Vector operator*(double scalar, Vector v) noexcept { return v *= scalar; }
Vector operator*(Vector v, double scalar) noexcept { return v *= scalar; }
Vector operator/(Vector v, double scalar) { return v /= scalar; }
Vector operator-(Vector v) noexcept { return v *= -1.0; }

double dot(const Vector& a, const Vector& b) {
  ABFT_REQUIRE(a.dim() == b.dim(), "vector dimension mismatch in dot");
  double sum = 0.0;
  for (int i = 0; i < a.dim(); ++i) sum += a[i] * b[i];
  return sum;
}

double distance(const Vector& a, const Vector& b) {
  ABFT_REQUIRE(a.dim() == b.dim(), "vector dimension mismatch in distance");
  double sum = 0.0;
  for (int i = 0; i < a.dim(); ++i) {
    const double diff = a[i] - b[i];
    sum += diff * diff;
  }
  return std::sqrt(sum);
}

bool approx_equal(const Vector& a, const Vector& b, double tol) {
  if (a.dim() != b.dim()) return false;
  for (int i = 0; i < a.dim(); ++i) {
    if (std::abs(a[i] - b[i]) > tol) return false;
  }
  return true;
}

Vector mean(std::span<const Vector> vectors) {
  ABFT_REQUIRE(!vectors.empty(), "mean of empty vector family");
  Vector sum(vectors.front().dim());
  for (const auto& v : vectors) sum += v;
  return sum / static_cast<double>(vectors.size());
}

std::ostream& operator<<(std::ostream& os, const Vector& v) {
  os << '(';
  for (int i = 0; i < v.dim(); ++i) {
    os << v[i];
    if (i + 1 < v.dim()) os << ", ";
  }
  return os << ')';
}

}  // namespace abft::linalg
