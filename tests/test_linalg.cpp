// Unit tests for abft::linalg — vector/matrix arithmetic, factorizations,
// least squares, and the Jacobi symmetric eigensolver.
#include <gtest/gtest.h>

#include "abft/linalg/decompose.hpp"
#include "abft/linalg/eigen_sym.hpp"
#include "abft/linalg/matrix.hpp"
#include "abft/linalg/vector.hpp"
#include "abft/util/rng.hpp"

namespace {

using namespace abft::linalg;

TEST(Vector, ConstructionAndIndexing) {
  Vector v(3);
  EXPECT_EQ(v.dim(), 3);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  v[1] = 2.5;
  EXPECT_DOUBLE_EQ(v[1], 2.5);
  EXPECT_THROW(v[3], std::invalid_argument);
  EXPECT_THROW(v[-1], std::invalid_argument);
  EXPECT_THROW(Vector(-1), std::invalid_argument);
}

TEST(Vector, Arithmetic) {
  const Vector a{1.0, 2.0};
  const Vector b{3.0, -1.0};
  EXPECT_EQ(a + b, (Vector{4.0, 1.0}));
  EXPECT_EQ(a - b, (Vector{-2.0, 3.0}));
  EXPECT_EQ(2.0 * a, (Vector{2.0, 4.0}));
  EXPECT_EQ(a / 2.0, (Vector{0.5, 1.0}));
  EXPECT_EQ(-a, (Vector{-1.0, -2.0}));
  EXPECT_THROW(a / 0.0, std::invalid_argument);
}

TEST(Vector, DimensionMismatchRejected) {
  Vector a{1.0, 2.0};
  const Vector b{1.0};
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW(dot(a, b), std::invalid_argument);
  EXPECT_THROW(distance(a, b), std::invalid_argument);
}

TEST(Vector, NormsAndDot) {
  const Vector v{3.0, 4.0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.squared_norm(), 25.0);
  EXPECT_DOUBLE_EQ(v.norm_inf(), 4.0);
  EXPECT_DOUBLE_EQ(dot(v, Vector{1.0, 1.0}), 7.0);
  EXPECT_DOUBLE_EQ(distance(v, Vector{0.0, 0.0}), 5.0);
}

TEST(Vector, AddScaled) {
  Vector v{1.0, 1.0};
  v.add_scaled(2.0, Vector{1.0, -1.0});
  EXPECT_EQ(v, (Vector{3.0, -1.0}));
}

TEST(Vector, MeanOfFamily) {
  const std::vector<Vector> family{Vector{0.0, 0.0}, Vector{2.0, 4.0}};
  EXPECT_EQ(mean(family), (Vector{1.0, 2.0}));
  EXPECT_THROW(mean(std::vector<Vector>{}), std::invalid_argument);
}

TEST(Vector, ApproxEqual) {
  EXPECT_TRUE(approx_equal(Vector{1.0, 2.0}, Vector{1.0 + 1e-12, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal(Vector{1.0, 2.0}, Vector{1.1, 2.0}, 1e-9));
  EXPECT_FALSE(approx_equal(Vector{1.0}, Vector{1.0, 2.0}, 1e-9));
}

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  m(1, 2) = 7.0;
  EXPECT_DOUBLE_EQ(m(1, 2), 7.0);
  EXPECT_THROW(m(2, 0), std::invalid_argument);
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Accessors, InlineAccessorsKeepTheirRangeChecks) {
  // Both overloads of both accessors check every index, including a column
  // past the end that would otherwise land inside the next row.
  Vector v(2);
  const Vector& cv = v;
  EXPECT_THROW(v[2], std::invalid_argument);
  EXPECT_THROW(cv[2], std::invalid_argument);
  EXPECT_THROW(cv[-1], std::invalid_argument);
  Matrix m(2, 3);
  const Matrix& cm = m;
  EXPECT_THROW(m(0, 3), std::invalid_argument);
  EXPECT_THROW(cm(0, 3), std::invalid_argument);
  EXPECT_THROW(m(-1, 0), std::invalid_argument);
  EXPECT_THROW(cm(0, -1), std::invalid_argument);
  EXPECT_THROW(cm(2, 0), std::invalid_argument);
  EXPECT_NO_THROW((void)cm(1, 2));
  EXPECT_NO_THROW((void)cv[1]);
}

TEST(Matrix, RowColumnAccess) {
  const Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.row(0), (Vector{1.0, 2.0}));
  EXPECT_EQ(m.col(1), (Vector{2.0, 4.0}));
  Matrix w = m;
  w.set_row(0, Vector{9.0, 8.0});
  EXPECT_EQ(w.row(0), (Vector{9.0, 8.0}));
}

TEST(Matrix, MultiplyAndTranspose) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_EQ(a * b, (Matrix{{2.0, 1.0}, {4.0, 3.0}}));
  EXPECT_EQ(a.transpose(), (Matrix{{1.0, 3.0}, {2.0, 4.0}}));
  EXPECT_EQ(a * Vector({1.0, 1.0}), (Vector{3.0, 7.0}));
  EXPECT_THROW(a * Vector({1.0}), std::invalid_argument);
}

TEST(Matrix, SelectRowsAndGram) {
  const Matrix m{{1.0, 0.0}, {0.0, 1.0}, {2.0, 2.0}};
  const Matrix sel = m.select_rows({0, 2});
  EXPECT_EQ(sel, (Matrix{{1.0, 0.0}, {2.0, 2.0}}));
  const Matrix g = gram(m);
  EXPECT_EQ(g, (Matrix{{5.0, 4.0}, {4.0, 5.0}}));
}

TEST(Matrix, IdentityAndFrobenius) {
  EXPECT_EQ(Matrix::identity(2), (Matrix{{1.0, 0.0}, {0.0, 1.0}}));
  EXPECT_DOUBLE_EQ(frobenius_norm(Matrix{{3.0, 0.0}, {0.0, 4.0}}), 5.0);
}

TEST(Cholesky, FactorsSpdMatrix) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const auto l = cholesky(a);
  ASSERT_TRUE(l.has_value());
  const Matrix reconstructed = (*l) * l->transpose();
  EXPECT_NEAR(frobenius_norm(reconstructed - a), 0.0, 1e-12);
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  EXPECT_FALSE(cholesky(Matrix{{1.0, 2.0}, {2.0, 1.0}}).has_value());
  EXPECT_THROW(cholesky(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, SolvesSpdSystem) {
  const Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  const Vector b{10.0, 9.0};
  const auto x = cholesky_solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((a * (*x) - b).norm(), 0.0, 1e-12);
}

TEST(Qr, ReconstructsAndOrthogonal) {
  abft::util::Rng rng(21);
  Matrix a(6, 3);
  for (int r = 0; r < 6; ++r) {
    for (int c = 0; c < 3; ++c) a(r, c) = rng.normal();
  }
  const auto [q, r] = qr_decompose(a);
  EXPECT_NEAR(frobenius_norm(q * r - a), 0.0, 1e-10);
  const Matrix qtq = q.transpose() * q;
  EXPECT_NEAR(frobenius_norm(qtq - Matrix::identity(3)), 0.0, 1e-10);
  // R upper triangular.
  for (int i = 1; i < 3; ++i) {
    for (int j = 0; j < i; ++j) EXPECT_DOUBLE_EQ(r(i, j), 0.0);
  }
}

TEST(LeastSquares, RecoversExactSolution) {
  const Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  const Vector truth{2.0, -1.0};
  const Vector b = a * truth;
  const Vector x = least_squares(a, b);
  EXPECT_TRUE(approx_equal(x, truth, 1e-10));
}

TEST(LeastSquares, MatchesNormalEquationsOnNoisyData) {
  abft::util::Rng rng(33);
  Matrix a(10, 3);
  Vector b(10);
  for (int r = 0; r < 10; ++r) {
    for (int c = 0; c < 3; ++c) a(r, c) = rng.normal();
    b[r] = rng.normal();
  }
  const Vector x_qr = least_squares(a, b);
  // Normal equations: (A^T A) x = A^T b.
  const auto x_ne = cholesky_solve(gram(a), a.transpose() * b);
  ASSERT_TRUE(x_ne.has_value());
  EXPECT_TRUE(approx_equal(x_qr, *x_ne, 1e-8));
}

TEST(LeastSquares, RejectsRankDeficiency) {
  const Matrix a{{1.0, 1.0}, {2.0, 2.0}, {3.0, 3.0}};
  EXPECT_THROW(least_squares(a, Vector{1.0, 2.0, 3.0}), std::invalid_argument);
}

TEST(Solve, GaussianEliminationWithPivoting) {
  const Matrix a{{0.0, 2.0}, {1.0, 1.0}};  // needs a pivot swap
  const Vector b{4.0, 3.0};
  const auto x = solve(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(approx_equal(*x, Vector{1.0, 2.0}, 1e-12));
}

TEST(Solve, SingularMatrixReturnsNullopt) {
  EXPECT_FALSE(solve(Matrix{{1.0, 2.0}, {2.0, 4.0}}, Vector{1.0, 2.0}).has_value());
}

TEST(EigenSym, DiagonalMatrixTrivial) {
  const auto eig = symmetric_eigen(Matrix{{3.0, 0.0}, {0.0, 1.0}});
  EXPECT_NEAR(eig.eigenvalues[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.eigenvalues[1], 3.0, 1e-12);
}

TEST(EigenSym, KnownTwoByTwo) {
  // Eigenvalues of [[2, 1], [1, 2]] are 1 and 3.
  const auto values = symmetric_eigenvalues(Matrix{{2.0, 1.0}, {1.0, 2.0}});
  EXPECT_NEAR(values[0], 1.0, 1e-10);
  EXPECT_NEAR(values[1], 3.0, 1e-10);
}

TEST(EigenSym, ReconstructionFromRandomSpectrum) {
  abft::util::Rng rng(55);
  const int n = 6;
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      const double v = rng.normal();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  const auto eig = symmetric_eigen(a);
  // A V = V diag(lambda).
  Matrix lambda(n, n);
  for (int i = 0; i < n; ++i) lambda(i, i) = eig.eigenvalues[i];
  EXPECT_NEAR(frobenius_norm(a * eig.eigenvectors - eig.eigenvectors * lambda), 0.0, 1e-8);
  // Eigenvalues ascending.
  for (int i = 1; i < n; ++i) EXPECT_LE(eig.eigenvalues[i - 1], eig.eigenvalues[i] + 1e-12);
}

TEST(EigenSym, RejectsAsymmetric) {
  EXPECT_THROW(symmetric_eigen(Matrix{{1.0, 2.0}, {0.0, 1.0}}), std::invalid_argument);
}

// Parameterized sweeps: QR reconstruction / least squares / Jacobi over a
// grid of shapes with random data.
struct ShapeParam {
  int rows;
  int cols;
};

class DecompositionSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(DecompositionSweep, QrReconstructsAndSolves) {
  const auto [rows, cols] = GetParam();
  abft::util::Rng rng(static_cast<std::uint64_t>(rows * 100 + cols));
  Matrix a(rows, cols);
  Vector truth(cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) a(r, c) = rng.normal();
  }
  for (int c = 0; c < cols; ++c) truth[c] = rng.normal();
  const auto [q, r] = qr_decompose(a);
  EXPECT_LT(frobenius_norm(q * r - a), 1e-9 * std::max(1.0, frobenius_norm(a)));
  EXPECT_LT(frobenius_norm(q.transpose() * q - Matrix::identity(cols)), 1e-9);
  // Consistent system: least squares recovers the exact solution.
  const Vector b = a * truth;
  EXPECT_TRUE(approx_equal(least_squares(a, b), truth, 1e-7));
}

TEST_P(DecompositionSweep, GramIsSpdAndCholeskySolves) {
  const auto [rows, cols] = GetParam();
  abft::util::Rng rng(static_cast<std::uint64_t>(rows * 37 + cols));
  Matrix a(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) a(r, c) = rng.normal();
  }
  const Matrix g = gram(a);
  const auto l = cholesky(g);
  ASSERT_TRUE(l.has_value());  // random tall matrices are full rank a.s.
  Vector rhs(cols);
  for (int c = 0; c < cols; ++c) rhs[c] = rng.normal();
  const auto x = cholesky_solve(g, rhs);
  ASSERT_TRUE(x.has_value());
  EXPECT_LT((g * (*x) - rhs).norm(), 1e-8 * std::max(1.0, rhs.norm()));
}

TEST_P(DecompositionSweep, JacobiEigenOfGram) {
  const auto [rows, cols] = GetParam();
  abft::util::Rng rng(static_cast<std::uint64_t>(rows * 53 + cols));
  Matrix a(rows, cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) a(r, c) = rng.normal();
  }
  const Matrix g = gram(a);
  const auto values = symmetric_eigenvalues(g);
  // Gram matrices are PSD: all eigenvalues >= 0, and their sum is the trace.
  double trace = 0.0;
  for (int i = 0; i < cols; ++i) trace += g(i, i);
  double sum = 0.0;
  for (double v : values) {
    EXPECT_GE(v, -1e-9);
    sum += v;
  }
  EXPECT_NEAR(sum, trace, 1e-8 * std::max(1.0, trace));
}

INSTANTIATE_TEST_SUITE_P(Shapes, DecompositionSweep,
                         ::testing::Values(ShapeParam{4, 2}, ShapeParam{6, 3}, ShapeParam{8, 8},
                                           ShapeParam{12, 5}, ShapeParam{20, 10},
                                           ShapeParam{30, 4}),
                         [](const auto& info) {
                           return std::to_string(info.param.rows) + "x" +
                                  std::to_string(info.param.cols);
                         });

TEST(Rank, DetectsDeficiency) {
  EXPECT_EQ(column_rank(Matrix{{1.0, 2.0}, {2.0, 4.0}}), 1);
  EXPECT_EQ(column_rank(Matrix{{1.0, 0.0}, {0.0, 1.0}}), 2);
  EXPECT_EQ(column_rank(Matrix(3, 2)), 0);
}

}  // namespace
