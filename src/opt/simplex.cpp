#include "opt/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/metrics.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace scs {

const char* to_string(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "optimal";
    case LpStatus::kInfeasible:
      return "infeasible";
    case LpStatus::kUnbounded:
      return "unbounded";
    case LpStatus::kIterationLimit:
      return "iteration-limit";
    case LpStatus::kTimeLimit:
      return "time-limit";
    case LpStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

/// Internal revised-simplex core over an explicit column matrix. The basis
/// inverse is maintained densely and refreshed by elementary pivots.
class SimplexCore {
 public:
  SimplexCore(const Mat& a, const Vec& b, const Vec& c, double tol,
              const Stopwatch* budget_sw = nullptr,
              double budget_seconds = 0.0, bool force_bland = false,
              const JobControl* control = nullptr)
      : a_(a),
        b_(b),
        c_(c),
        m_(a.rows()),
        n_(a.cols()),
        tol_(tol),
        budget_sw_(budget_sw),
        budget_seconds_(budget_seconds),
        force_bland_(force_bland),
        control_(control) {}

  /// Run from the given starting basis. Returns the termination status.
  LpStatus run(std::vector<std::size_t>& basis, Mat& binv, int max_iters,
               int* iterations_used) {
    int degenerate_streak = 0;
    std::vector<char> in_basis(n_, 0);
    for (const std::size_t j : basis) in_basis[j] = 1;
    for (int it = 0; it < max_iters; ++it) {
      if (iterations_used != nullptr) *iterations_used = it;
      // Wall-clock budget and job-level preemption, checked coarsely to keep
      // the loop lean.
      if ((it & 63) == 0) {
        if (budget_seconds_ > 0.0 && budget_sw_ != nullptr &&
            budget_sw_->seconds() > budget_seconds_)
          return LpStatus::kTimeLimit;
        if (control_ != nullptr && control_->stop_requested())
          return control_->cancelled() ? LpStatus::kCancelled
                                       : LpStatus::kTimeLimit;
      }
      // Duals y = c_B' B^{-1}; reduced costs r_j = c_j - y' A_j.
      Vec cb(m_);
      for (std::size_t i = 0; i < m_; ++i) cb[i] = c_[basis[i]];
      const Vec y = matvec_t(binv, cb);

      // Pricing: Dantzig rule normally; Bland's rule after a degenerate
      // streak (or from the start, in the anti-cycling fallback) to
      // guarantee termination.
      const bool bland =
          force_bland_ || degenerate_streak > 2 * static_cast<int>(m_) + 20;
      std::size_t enter = n_;
      double best = -tol_;
      for (std::size_t j = 0; j < n_; ++j) {
        if (in_basis[j]) continue;
        double rj = c_[j];
        for (std::size_t i = 0; i < m_; ++i) rj -= y[i] * a_(i, j);
        if (bland) {
          if (rj < -tol_) {
            enter = j;
            break;
          }
        } else if (rj < best) {
          best = rj;
          enter = j;
        }
      }
      if (enter == n_) return LpStatus::kOptimal;

      // Direction d = B^{-1} A_enter.
      Vec col(m_);
      for (std::size_t i = 0; i < m_; ++i) col[i] = a_(i, enter);
      const Vec d = matvec(binv, col);
      const Vec xb = matvec(binv, b_);

      // Ratio test.
      std::size_t leave = m_;
      double best_ratio = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < m_; ++i) {
        if (d[i] > tol_) {
          const double ratio = xb[i] / d[i];
          if (ratio < best_ratio - tol_ ||
              (ratio < best_ratio + tol_ &&
               (leave == m_ || basis[i] < basis[leave]))) {
            best_ratio = ratio;
            leave = i;
          }
        }
      }
      if (leave == m_) return LpStatus::kUnbounded;
      degenerate_streak = (best_ratio <= tol_) ? degenerate_streak + 1 : 0;
      if (metrics_enabled()) {
        static Counter& pivots =
            MetricsRegistry::instance().counter("simplex.pivots");
        pivots.add(1);
      }

      // Pivot: update basis and basis inverse.
      in_basis[basis[leave]] = 0;
      in_basis[enter] = 1;
      basis[leave] = enter;
      const double piv = d[leave];
      for (std::size_t j = 0; j < m_; ++j) binv(leave, j) /= piv;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == leave) continue;
        const double f = d[i];
        if (f == 0.0) continue;
        for (std::size_t j = 0; j < m_; ++j)
          binv(i, j) -= f * binv(leave, j);
      }
    }
    return LpStatus::kIterationLimit;
  }

 private:
  const Mat& a_;
  const Vec& b_;
  const Vec& c_;
  std::size_t m_, n_;
  double tol_;
  const Stopwatch* budget_sw_ = nullptr;
  double budget_seconds_ = 0.0;
  bool force_bland_ = false;
  const JobControl* control_ = nullptr;
};

/// Run one phase; when Dantzig pricing exhausts the iteration budget and the
/// fallback is enabled, rewind to the phase's starting basis and rerun under
/// pure Bland's rule (degenerate pivots cannot cycle there).
LpStatus run_phase(const Mat& a, const Vec& b, const Vec& c,
                   const LpOptions& options, const Stopwatch& budget_sw,
                   std::vector<std::size_t>& basis, Mat& binv,
                   int* total_iterations) {
  const std::vector<std::size_t> basis0 = basis;
  const Mat binv0 = binv;
  int iters = 0;
  SimplexCore core(a, b, c, options.tol, &budget_sw,
                   options.wall_clock_seconds, false, options.control);
  LpStatus st = core.run(basis, binv, options.max_iterations, &iters);
  *total_iterations += iters;
  if (st == LpStatus::kIterationLimit && options.bland_restart) {
    if (metrics_enabled()) {
      static Counter& restarts =
          MetricsRegistry::instance().counter("simplex.bland_restarts");
      restarts.add(1);
    }
    basis = basis0;
    binv = binv0;
    SimplexCore bland(a, b, c, options.tol, &budget_sw,
                      options.wall_clock_seconds, true, options.control);
    st = bland.run(basis, binv, options.max_iterations, &iters);
    *total_iterations += iters;
  }
  return st;
}

}  // namespace

LpSolution solve_lp(const LpProblem& problem, const LpOptions& options) {
  const std::size_t m = problem.a.rows();
  const std::size_t n = problem.a.cols();
  SCS_REQUIRE(problem.b.size() == m && problem.c.size() == n,
              "solve_lp: dimension mismatch");
  LpSolution sol;

  // Normalize to b >= 0 by flipping rows.
  Mat a = problem.a;
  Vec b = problem.b;
  for (std::size_t i = 0; i < m; ++i) {
    if (b[i] < 0.0) {
      b[i] = -b[i];
      for (std::size_t j = 0; j < n; ++j) a(i, j) = -a(i, j);
    }
  }

  // ---- Phase I: minimize the sum of artificials.
  Mat a1(m, n + m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a1(i, j) = a(i, j);
    a1(i, n + i) = 1.0;
  }
  Vec c1(n + m, 0.0);
  for (std::size_t i = 0; i < m; ++i) c1[n + i] = 1.0;

  std::vector<std::size_t> basis(m);
  for (std::size_t i = 0; i < m; ++i) basis[i] = n + i;
  Mat binv = Mat::identity(m);

  Stopwatch budget_sw;
  {
    const LpStatus st =
        run_phase(a1, b, c1, options, budget_sw, basis, binv, &sol.iterations);
    if (st == LpStatus::kIterationLimit || st == LpStatus::kTimeLimit ||
        st == LpStatus::kCancelled) {
      sol.status = st;
      return sol;
    }
  }
  // Check Phase-I objective.
  {
    const Vec xb = matvec(binv, b);
    double art_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      if (basis[i] >= n) art_sum += xb[i];
    if (art_sum > 1e-7) {
      sol.status = LpStatus::kInfeasible;
      return sol;
    }
  }
  // Drive remaining (degenerate) artificials out of the basis if possible.
  std::vector<char> in_basis(n + m, 0);
  for (const std::size_t j : basis) in_basis[j] = 1;
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) continue;
    // Find a non-basic structural column with a nonzero pivot in row i.
    bool pivoted = false;
    for (std::size_t j = 0; j < n && !pivoted; ++j) {
      if (in_basis[j]) continue;
      double dij = 0.0;
      for (std::size_t k = 0; k < m; ++k) dij += binv(i, k) * a(k, j);
      if (std::fabs(dij) > 1e-8) {
        // Pivot j into row i.
        Vec col(m);
        for (std::size_t k = 0; k < m; ++k) col[k] = a(k, j);
        const Vec d = matvec(binv, col);
        in_basis[basis[i]] = 0;
        in_basis[j] = 1;
        basis[i] = j;
        const double piv = d[i];
        for (std::size_t jj = 0; jj < m; ++jj) binv(i, jj) /= piv;
        for (std::size_t k = 0; k < m; ++k) {
          if (k == i) continue;
          const double f = d[k];
          if (f == 0.0) continue;
          for (std::size_t jj = 0; jj < m; ++jj)
            binv(k, jj) -= f * binv(i, jj);
        }
        pivoted = true;
      }
    }
    // If no pivot exists the row is redundant; the artificial stays basic at
    // level zero, which Phase II tolerates (its cost is forced to zero).
  }

  // ---- Phase II on the original objective (artificial columns frozen).
  Mat a2(m, n + m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) a2(i, j) = a(i, j);
    a2(i, n + i) = 1.0;
  }
  Vec c2(n + m, 0.0);
  for (std::size_t j = 0; j < n; ++j) c2[j] = problem.c[j];
  // Large cost pins any residual artificial at zero.
  double big = 1.0;
  for (std::size_t j = 0; j < n; ++j) big += std::fabs(problem.c[j]);
  for (std::size_t i = 0; i < m; ++i) c2[n + i] = 1e6 * big;

  {
    const LpStatus st =
        run_phase(a2, b, c2, options, budget_sw, basis, binv, &sol.iterations);
    if (st != LpStatus::kOptimal) {
      sol.status = st;
      return sol;
    }
  }

  // Extract the solution.
  sol.x = Vec(n, 0.0);
  const Vec xb = matvec(binv, b);
  for (std::size_t i = 0; i < m; ++i) {
    if (basis[i] < n) sol.x[basis[i]] = std::max(0.0, xb[i]);
  }
  sol.objective = dot(problem.c, sol.x);
  Vec cb(m);
  for (std::size_t i = 0; i < m; ++i) cb[i] = c2[basis[i]];
  Vec y = matvec_t(binv, cb);
  // Undo the row flips in the duals.
  for (std::size_t i = 0; i < m; ++i)
    if (problem.b[i] < 0.0) y[i] = -y[i];
  sol.dual = y;
  sol.basis = basis;
  sol.status = LpStatus::kOptimal;
  return sol;
}

}  // namespace scs
