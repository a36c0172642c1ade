#include "abft/linalg/matrix.hpp"

#include <cmath>
#include <ostream>

#include "abft/util/check.hpp"

namespace abft::linalg {

Matrix::Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
  ABFT_REQUIRE(rows >= 0 && cols >= 0, "matrix shape must be non-negative");
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 0.0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_));
  for (const auto& row : rows) {
    ABFT_REQUIRE(static_cast<int>(row.size()) == cols_, "ragged matrix initializer");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Vector Matrix::row(int r) const {
  ABFT_REQUIRE(0 <= r && r < rows_, "matrix row out of range");
  std::vector<double> out(static_cast<std::size_t>(cols_));
  for (int c = 0; c < cols_; ++c) out[static_cast<std::size_t>(c)] = (*this)(r, c);
  return Vector(std::move(out));
}

Vector Matrix::col(int c) const {
  ABFT_REQUIRE(0 <= c && c < cols_, "matrix column out of range");
  std::vector<double> out(static_cast<std::size_t>(rows_));
  for (int r = 0; r < rows_; ++r) out[static_cast<std::size_t>(r)] = (*this)(r, c);
  return Vector(std::move(out));
}

void Matrix::set_row(int r, const Vector& values) {
  ABFT_REQUIRE(values.dim() == cols_, "set_row dimension mismatch");
  for (int c = 0; c < cols_; ++c) (*this)(r, c) = values[c];
}

Matrix Matrix::transpose() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::select_rows(const std::vector<int>& row_indices) const {
  Matrix out(static_cast<int>(row_indices.size()), cols_);
  for (std::size_t i = 0; i < row_indices.size(); ++i) {
    const int r = row_indices[i];
    ABFT_REQUIRE(0 <= r && r < rows_, "select_rows index out of range");
    for (int c = 0; c < cols_; ++c) out(static_cast<int>(i), c) = (*this)(r, c);
  }
  return out;
}

Matrix Matrix::identity(int n) {
  Matrix out(n, n);
  for (int i = 0; i < n; ++i) out(i, i) = 1.0;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ABFT_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "matrix shape mismatch in +=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  ABFT_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_, "matrix shape mismatch in -=");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) noexcept {
  for (auto& v : data_) v *= scalar;
  return *this;
}

Matrix operator+(Matrix lhs, const Matrix& rhs) { return lhs += rhs; }
Matrix operator-(Matrix lhs, const Matrix& rhs) { return lhs -= rhs; }
Matrix operator*(double scalar, Matrix m) noexcept { return m *= scalar; }

Matrix operator*(const Matrix& a, const Matrix& b) {
  ABFT_REQUIRE(a.cols() == b.rows(), "matrix shape mismatch in multiply");
  Matrix out(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Vector operator*(const Matrix& m, const Vector& v) {
  ABFT_REQUIRE(m.cols() == v.dim(), "matrix-vector shape mismatch");
  Vector out(m.rows());
  for (int r = 0; r < m.rows(); ++r) {
    double sum = 0.0;
    for (int c = 0; c < m.cols(); ++c) sum += m(r, c) * v[c];
    out[r] = sum;
  }
  return out;
}

Matrix gram(const Matrix& a) {
  Matrix out(a.cols(), a.cols());
  for (int i = 0; i < a.cols(); ++i) {
    for (int j = i; j < a.cols(); ++j) {
      double sum = 0.0;
      for (int r = 0; r < a.rows(); ++r) sum += a(r, i) * a(r, j);
      out(i, j) = sum;
      out(j, i) = sum;
    }
  }
  return out;
}

double frobenius_norm(const Matrix& m) {
  double sum = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) sum += m(r, c) * m(r, c);
  }
  return std::sqrt(sum);
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  os << '[';
  for (int r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "" : " ") << m.row(r);
    if (r + 1 < m.rows()) os << ",\n";
  }
  return os << ']';
}

}  // namespace abft::linalg
