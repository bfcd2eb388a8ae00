#include "math/cholesky.hpp"

#include <algorithm>
#include <cmath>

#include "math/simd.hpp"
#include "util/check.hpp"
#include "util/fault_injector.hpp"

namespace scs {

bool cholesky_in_place(double* a, std::size_t n, double tol) {
  // Column-oriented (left-looking) factorization on the lower triangle:
  // column j reads A(j.., j) once, before overwriting it with L(j.., j),
  // and otherwise only the finished columns 0..j-1 of L.
  for (std::size_t j = 0; j < n; ++j) {
    double* lrow_j = a + j * n;
    double djj = lrow_j[j] - simd::dot(lrow_j, lrow_j, j);
    if (fault_injection_enabled())
      djj = FaultInjector::instance().perturb_pivot(FaultSite::kCholeskyPivot,
                                                    djj);
    if (djj <= tol) return false;
    const double ljj = std::sqrt(djj);
    lrow_j[j] = ljj;
    const double inv_ljj = 1.0 / ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* lrow_i = a + i * n;
      const double acc = lrow_i[j] - simd::dot(lrow_i, lrow_j, j);
      lrow_i[j] = acc * inv_ljj;
    }
  }
  return true;
}

Cholesky::Cholesky(const Mat& a, double tol) : l_(a.rows(), a.cols()) {
  SCS_REQUIRE(a.rows() == a.cols(), "Cholesky: matrix must be square");
  const std::size_t n = a.rows();
  for (std::size_t i = 0; i < n; ++i)
    std::copy(a.row_ptr(i), a.row_ptr(i) + i + 1, l_.row_ptr(i));
  ok_ = cholesky_in_place(l_.row_ptr(0), n, tol);
}

Vec Cholesky::solve_lower(const Vec& b) const {
  SCS_REQUIRE(ok_, "Cholesky::solve_lower: factorization failed");
  const std::size_t n = l_.rows();
  SCS_REQUIRE(b.size() == n, "Cholesky::solve_lower: size mismatch");
  Vec y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = l_.row_ptr(i);
    y[i] = (b[i] - simd::dot(row, y.begin(), i)) / row[i];
  }
  return y;
}

Vec Cholesky::solve_lower_t(const Vec& b) const {
  SCS_REQUIRE(ok_, "Cholesky::solve_lower_t: factorization failed");
  const std::size_t n = l_.rows();
  SCS_REQUIRE(b.size() == n, "Cholesky::solve_lower_t: size mismatch");
  Vec x(b);
  for (std::size_t ii = n; ii-- > 0;) {
    x[ii] /= l_(ii, ii);
    const double xi = x[ii];
    // Subtract column ii of L (below the diagonal) from the remaining rhs.
    for (std::size_t j = 0; j < ii; ++j) x[j] -= l_(ii, j) * xi;
  }
  return x;
}

Vec Cholesky::solve(const Vec& b) const { return solve_lower_t(solve_lower(b)); }

Mat Cholesky::solve(const Mat& b) const {
  Mat out(b.rows(), b.cols());
  for (std::size_t j = 0; j < b.cols(); ++j) out.set_col(j, solve(b.col(j)));
  return out;
}

Mat Cholesky::lower_inverse() const {
  SCS_REQUIRE(ok_, "Cholesky::lower_inverse: factorization failed");
  const std::size_t n = l_.rows();
  Mat inv(n, n);
  // Forward-substitute each unit vector; result stays lower triangular.
  for (std::size_t j = 0; j < n; ++j) {
    inv(j, j) = 1.0 / l_(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double acc = 0.0;
      const double* row = l_.row_ptr(i);
      for (std::size_t k = j; k < i; ++k) acc -= row[k] * inv(k, j);
      inv(i, j) = acc / row[i];
    }
  }
  return inv;
}

double Cholesky::log_det() const {
  SCS_REQUIRE(ok_, "Cholesky::log_det: factorization failed");
  double acc = 0.0;
  for (std::size_t i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
  return 2.0 * acc;
}

bool is_positive_definite(const Mat& a, double tol) {
  return Cholesky(a, tol).ok();
}

std::optional<Vec> solve_spd(const Mat& a, const Vec& b) {
  Cholesky chol(a);
  if (!chol.ok()) return std::nullopt;
  return chol.solve(b);
}

}  // namespace scs
