// Cholesky factorization of symmetric positive-definite matrices.
//
// This is the workhorse of the interior-point SDP solver: PSD feasibility
// tests, step-length computation, and the Schur-complement solve all go
// through it.
#pragma once

#include <optional>

#include "math/mat.hpp"
#include "math/vec.hpp"

namespace scs {

/// Lower-triangular Cholesky factor: A = L L^T.
/// `ok()` is false when A is not (numerically) positive definite.
class Cholesky {
 public:
  explicit Cholesky(const Mat& a, double tol = 0.0);

  bool ok() const { return ok_; }
  const Mat& lower() const { return l_; }

  /// Solve A x = b.
  Vec solve(const Vec& b) const;
  /// Solve L y = b (forward substitution only).
  Vec solve_lower(const Vec& b) const;
  /// Solve L^T x = b (backward substitution only).
  Vec solve_lower_t(const Vec& b) const;
  /// Solve A X = B column-wise.
  Mat solve(const Mat& b) const;

  /// Inverse of the lower factor, L^{-1} (used for SDP scaling matrices).
  Mat lower_inverse() const;

  /// log(det A) = 2 * sum(log diag(L)).
  double log_det() const;

 private:
  Mat l_;
  bool ok_ = false;
};

/// Factor the row-major n x n matrix at `a` (row stride n) in place, reading
/// and writing only its lower triangle: on success that triangle holds L.
/// False when a pivot is <= tol (the triangle is then partly overwritten).
/// Cholesky's constructor runs exactly this, so the arithmetic, the
/// kCholeskyPivot fault probe and the pass/fail decision are the same.
bool cholesky_in_place(double* a, std::size_t n, double tol = 0.0);

/// True when the symmetric matrix is positive definite within tolerance.
bool is_positive_definite(const Mat& a, double tol = 0.0);

/// Solve the SPD system A x = b; std::nullopt when not positive definite.
std::optional<Vec> solve_spd(const Mat& a, const Vec& b);

}  // namespace scs
