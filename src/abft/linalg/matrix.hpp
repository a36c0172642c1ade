// Dense row-major real matrix.  Sized for the paper's workloads (d up to a
// few thousand for the learning experiments), not for HPC.
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <vector>

#include "abft/linalg/vector.hpp"
#include "abft/util/check.hpp"

namespace abft::linalg {

class Matrix {
 public:
  Matrix() = default;

  /// Zero matrix of shape rows x cols (both >= 0).
  Matrix(int rows, int cols);

  /// Row-major construction from nested initializer lists.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] int rows() const noexcept { return rows_; }
  [[nodiscard]] int cols() const noexcept { return cols_; }

  // Range-checked and inline, like Vector::operator[].
  double& operator()(int r, int c) {
    ABFT_REQUIRE(0 <= r && r < rows_ && 0 <= c && c < cols_, "matrix index out of range");
    return data_[offset(r, c)];
  }
  double operator()(int r, int c) const {
    ABFT_REQUIRE(0 <= r && r < rows_ && 0 <= c && c < cols_, "matrix index out of range");
    return data_[offset(r, c)];
  }

  [[nodiscard]] Vector row(int r) const;
  [[nodiscard]] Vector col(int c) const;
  void set_row(int r, const Vector& values);

  [[nodiscard]] Matrix transpose() const;

  /// Stacks the given rows of `this` into a new |rows| x cols matrix.
  [[nodiscard]] Matrix select_rows(const std::vector<int>& row_indices) const;

  [[nodiscard]] static Matrix identity(int n);

  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar) noexcept;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  [[nodiscard]] std::size_t offset(int r, int c) const noexcept {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(c);
  }

  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;  // row-major
};

Matrix operator+(Matrix lhs, const Matrix& rhs);
Matrix operator-(Matrix lhs, const Matrix& rhs);
Matrix operator*(double scalar, Matrix m) noexcept;
Matrix operator*(const Matrix& a, const Matrix& b);
Vector operator*(const Matrix& m, const Vector& v);

/// a^T * b without forming a^T.
Matrix gram(const Matrix& a);  // returns a^T a

/// Frobenius norm.
double frobenius_norm(const Matrix& m);

std::ostream& operator<<(std::ostream& os, const Matrix& m);

}  // namespace abft::linalg
