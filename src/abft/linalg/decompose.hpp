// Factorizations and solvers: Cholesky for SPD systems, Householder QR for
// least squares, plus rank estimation.  These back the closed-form subset
// minimizations x_S = argmin ||B_S - A_S x||^2 used throughout the paper's
// linear-regression evaluation (Appendix J, eq. 137).
#pragma once

#include <optional>

#include "abft/linalg/matrix.hpp"
#include "abft/linalg/vector.hpp"

namespace abft::linalg {

/// Lower-triangular Cholesky factor L with A = L L^T.
/// Returns std::nullopt if A is not symmetric positive definite
/// (within a small pivot tolerance).
std::optional<Matrix> cholesky(const Matrix& a);

/// Solves A x = b for symmetric positive-definite A via Cholesky.
/// Returns std::nullopt if A is not SPD.
std::optional<Vector> cholesky_solve(const Matrix& a, const Vector& b);

/// Thin Householder QR of an m x n matrix with m >= n.
struct QrDecomposition {
  Matrix q;  // m x n with orthonormal columns
  Matrix r;  // n x n upper triangular
};
QrDecomposition qr_decompose(const Matrix& a);

/// Least-squares solution of min_x ||a x - b||^2 via QR.  Requires
/// a.rows() >= a.cols() and full column rank; throws std::invalid_argument
/// if the system is rank deficient (R has a negligible diagonal entry).
Vector least_squares(const Matrix& a, const Vector& b);

/// Numerical column rank of `a` estimated from the QR of the Gram matrix
/// eigenvalues; `rel_tol` is relative to the largest eigenvalue.
int column_rank(const Matrix& a, double rel_tol = 1e-10);

}  // namespace abft::linalg
