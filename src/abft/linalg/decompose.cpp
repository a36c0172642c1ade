#include "abft/linalg/decompose.hpp"

#include <cmath>

#include "abft/linalg/eigen_sym.hpp"
#include "abft/util/check.hpp"

namespace abft::linalg {

std::optional<Matrix> cholesky(const Matrix& a) {
  ABFT_REQUIRE(a.rows() == a.cols(), "cholesky needs a square matrix");
  const int n = a.rows();
  Matrix l(n, n);
  for (int j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (int k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return std::nullopt;
    l(j, j) = std::sqrt(diag);
    for (int i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (int k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
  }
  return l;
}

std::optional<Vector> cholesky_solve(const Matrix& a, const Vector& b) {
  ABFT_REQUIRE(a.rows() == b.dim(), "cholesky_solve shape mismatch");
  auto l = cholesky(a);
  if (!l) return std::nullopt;
  const int n = a.rows();
  // Forward substitution: L y = b.
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    double sum = b[i];
    for (int k = 0; k < i; ++k) sum -= (*l)(i, k) * y[k];
    y[i] = sum / (*l)(i, i);
  }
  // Back substitution: L^T x = y.
  Vector x(n);
  for (int i = n - 1; i >= 0; --i) {
    double sum = y[i];
    for (int k = i + 1; k < n; ++k) sum -= (*l)(k, i) * x[k];
    x[i] = sum / (*l)(i, i);
  }
  return x;
}

QrDecomposition qr_decompose(const Matrix& a) {
  ABFT_REQUIRE(a.rows() >= a.cols(), "qr_decompose needs rows >= cols");
  const int m = a.rows();
  const int n = a.cols();
  Matrix work = a;                 // will become R in its top block
  Matrix q_full = Matrix::identity(m);
  for (int k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double norm_x = 0.0;
    for (int i = k; i < m; ++i) norm_x += work(i, k) * work(i, k);
    norm_x = std::sqrt(norm_x);
    if (norm_x == 0.0) continue;
    const double alpha = work(k, k) >= 0.0 ? -norm_x : norm_x;
    Vector v(m);
    for (int i = k; i < m; ++i) v[i] = work(i, k);
    v[k] -= alpha;
    const double v_norm_sq = v.squared_norm();
    if (v_norm_sq == 0.0) continue;
    // Apply H = I - 2 v v^T / (v^T v) to work (left) and accumulate into Q.
    for (int j = 0; j < n; ++j) {
      double proj = 0.0;
      for (int i = k; i < m; ++i) proj += v[i] * work(i, j);
      const double scale = 2.0 * proj / v_norm_sq;
      for (int i = k; i < m; ++i) work(i, j) -= scale * v[i];
    }
    for (int j = 0; j < m; ++j) {
      double proj = 0.0;
      for (int i = k; i < m; ++i) proj += v[i] * q_full(j, i);
      const double scale = 2.0 * proj / v_norm_sq;
      for (int i = k; i < m; ++i) q_full(j, i) -= scale * v[i];
    }
  }
  QrDecomposition out{Matrix(m, n), Matrix(n, n)};
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) out.q(i, j) = q_full(i, j);
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) out.r(i, j) = work(i, j);
  }
  return out;
}

Vector least_squares(const Matrix& a, const Vector& b) {
  ABFT_REQUIRE(a.rows() == b.dim(), "least_squares shape mismatch");
  ABFT_REQUIRE(a.rows() >= a.cols(), "least_squares needs rows >= cols");
  const auto [q, r] = qr_decompose(a);
  const int n = a.cols();
  // x solves R x = Q^T b.
  Vector rhs(n);
  for (int j = 0; j < n; ++j) {
    double sum = 0.0;
    for (int i = 0; i < a.rows(); ++i) sum += q(i, j) * b[i];
    rhs[j] = sum;
  }
  double max_diag = 0.0;
  for (int i = 0; i < n; ++i) max_diag = std::max(max_diag, std::abs(r(i, i)));
  Vector x(n);
  for (int i = n - 1; i >= 0; --i) {
    ABFT_REQUIRE(std::abs(r(i, i)) > 1e-12 * std::max(1.0, max_diag),
                 "least_squares: rank-deficient system");
    double sum = rhs[i];
    for (int k = i + 1; k < n; ++k) sum -= r(i, k) * x[k];
    x[i] = sum / r(i, i);
  }
  return x;
}

int column_rank(const Matrix& a, double rel_tol) {
  const Matrix g = gram(a);
  const auto eigenvalues = symmetric_eigenvalues(g);
  if (eigenvalues.empty()) return 0;
  const double largest = eigenvalues.back();  // ascending order
  if (largest <= 0.0) return 0;
  int rank = 0;
  for (double ev : eigenvalues) {
    if (ev > rel_tol * largest) ++rank;
  }
  return rank;
}

}  // namespace abft::linalg
