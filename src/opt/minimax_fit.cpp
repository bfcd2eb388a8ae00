#include "opt/minimax_fit.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "math/cholesky.hpp"
#include "math/robust_solve.hpp"
#include "opt/simplex.hpp"
#include "util/check.hpp"
#include "util/log.hpp"

namespace scs {

namespace {

/// Residuals r = targets - design * c.
Vec residuals(const Mat& design, const Vec& targets, const Vec& c) {
  Vec r = targets;
  r -= matvec(design, c);
  return r;
}

/// Weighted least squares via normal equations, solved through the robust
/// layer: a severely ill-conditioned basis gets diagonal-regularization
/// retries plus one round of iterative refinement instead of an exception.
/// `ok()` is false only when even the regularized factorization failed.
LinearSolveReport weighted_ls(const Mat& design, const Vec& targets,
                              const Vec& w, double ridge) {
  const std::size_t v = design.cols();
  Mat g(v, v);
  Vec rhs(v, 0.0);
  for (std::size_t i = 0; i < design.rows(); ++i) {
    const double wi = w[i];
    if (wi == 0.0) continue;
    const double* row = design.row_ptr(i);
    for (std::size_t a = 0; a < v; ++a) {
      const double wa = wi * row[a];
      rhs[a] += wa * targets[i];
      double* grow = g.row_ptr(a);
      for (std::size_t bcol = a; bcol < v; ++bcol) grow[bcol] += wa * row[bcol];
    }
  }
  // Mirror the upper triangle and add the ridge.
  for (std::size_t a = 0; a < v; ++a) {
    g(a, a) += ridge;
    for (std::size_t bcol = a + 1; bcol < v; ++bcol) g(bcol, a) = g(a, bcol);
  }
  return robust_solve_spd(g, rhs);
}

/// Exact minimax LP over a support subset S: (c, e) solving
///   min e  s.t. |u_k - phi_k' c| <= e,  k in S,
/// posed as its Chebyshev dual
///   max sum_k u_k w_k  s.t.  Phi_S' w = 0,  sum_k |w_k| = 1,
/// with w = p - q and p, q >= 0: v+1 rows and 2s columns (p_k at 2k, q_k at
/// 2k+1). Any feasible w bounds the optimum from below, and at optimality
/// e = -objective and c = -(duals of the Phi_S' w = 0 rows).
struct SupportSolution {
  Vec c;
  double e = 0.0;
  bool ok = false;
};

/// Recovers c when an artificial stays basic, i.e. Phi_S is rank-deficient
/// (a duplicated or all-zero basis column on the support). The big-M cost of
/// that artificial pollutes the LP duals, so re-derive them from the basis
/// with the artificial's cost taken as zero: each basic p_k / q_k makes its
/// point a reference point, u_k - phi_k' c = +e / -e, and each basic
/// artificial of row i < v pins the redundant coefficient c_i = 0.
bool recover_rank_deficient(const Mat& design, const Vec& targets,
                            const std::vector<std::size_t>& support,
                            const std::vector<std::size_t>& basis, Vec& c) {
  const std::size_t v = design.cols();
  const std::size_t n = 2 * support.size();
  Mat m(v + 1, v + 1);
  Vec rhs(v + 1, 0.0);
  for (std::size_t r = 0; r <= v; ++r) {
    if (basis[r] >= n) {
      m(r, basis[r] - n) = 1.0;
      continue;
    }
    const std::size_t k = support[basis[r] / 2];
    const double* row = design.row_ptr(k);
    for (std::size_t j = 0; j < v; ++j) m(r, j) = row[j];
    m(r, v) = (basis[r] % 2 == 0) ? 1.0 : -1.0;
    rhs[r] = targets[k];
  }
  const LinearSolveReport ce = robust_solve_linear(m, rhs);
  if (!ce.ok()) return false;
  c = Vec(v);
  for (std::size_t j = 0; j < v; ++j) c[j] = ce.x[j];
  return true;
}

SupportSolution solve_support_lp(const Mat& design, const Vec& targets,
                                 const std::vector<std::size_t>& support,
                                 const JobControl* control) {
  const std::size_t v = design.cols();
  const std::size_t s = support.size();
  LpProblem lp;
  lp.a = Mat(v + 1, 2 * s);
  lp.b = Vec(v + 1, 0.0);
  lp.b[v] = 1.0;
  lp.c = Vec(2 * s);
  for (std::size_t k = 0; k < s; ++k) {
    const double* row = design.row_ptr(support[k]);
    for (std::size_t j = 0; j < v; ++j) {
      lp.a(j, 2 * k) = row[j];
      lp.a(j, 2 * k + 1) = -row[j];
    }
    lp.a(v, 2 * k) = 1.0;
    lp.a(v, 2 * k + 1) = 1.0;
    const double u = targets[support[k]];
    lp.c[2 * k] = -u;  // minimize -sum_k u_k w_k
    lp.c[2 * k + 1] = u;
  }
  LpOptions lp_options;
  lp_options.control = control;
  const LpSolution sol = solve_lp(lp, lp_options);
  SupportSolution out;
  if (sol.status != LpStatus::kOptimal) return out;
  out.e = -sol.objective;
  const bool artificial_basic =
      std::any_of(sol.basis.begin(), sol.basis.end(),
                  [s](std::size_t j) { return j >= 2 * s; });
  if (artificial_basic) {
    if (!recover_rank_deficient(design, targets, support, sol.basis, out.c))
      return out;
  } else {
    out.c = Vec(v);
    for (std::size_t j = 0; j < v; ++j) out.c[j] = -sol.dual[j];
  }
  out.ok = true;
  return out;
}

}  // namespace

MinimaxFitResult minimax_fit(const Mat& design, const Vec& targets,
                             const MinimaxOptions& options) {
  const std::size_t k_samples = design.rows();
  const std::size_t v = design.cols();
  SCS_REQUIRE(k_samples >= 1 && v >= 1, "minimax_fit: empty problem");
  SCS_REQUIRE(targets.size() == k_samples, "minimax_fit: target size mismatch");

  MinimaxFitResult result;

  // A fit that starts preempted ends preempted: bail before the first
  // normal-equation solve (mid-loop stops are handled below).
  if (stop_requested(options.control)) {
    result.ok = false;
    result.note = "preempted before fitting";
    result.coefficients = Vec(v, 0.0);
    result.error = std::numeric_limits<double>::infinity();
    return result;
  }

  // Non-finite targets (upstream evaluation blow-ups, injected NaNs) poison
  // every normal-equation solve; surface a structured failure instead.
  for (std::size_t i = 0; i < k_samples; ++i) {
    if (!std::isfinite(targets[i])) {
      result.ok = false;
      result.note = "non-finite target at sample " + std::to_string(i);
      result.coefficients = Vec(v, 0.0);
      result.error = std::numeric_limits<double>::infinity();
      return result;
    }
  }

  // ---- Stage 1: Lawson IRLS toward the Chebyshev solution.
  Vec w(k_samples, 1.0 / static_cast<double>(k_samples));
  LinearSolveReport ls = weighted_ls(design, targets, w, options.ridge);
  if (!ls.ok()) {
    result.ok = false;
    result.note = "weighted least-squares core failed even with "
                  "regularization";
    result.coefficients = Vec(v, 0.0);
    result.error = targets.max_abs();
    return result;
  }
  Vec c = std::move(ls.x);
  double prev_e = std::numeric_limits<double>::infinity();
  for (int it = 0; it < options.lawson_iterations; ++it) {
    if (stop_requested(options.control)) {
      result.note = "preempted during Lawson refinement; kept last iterate";
      break;
    }
    const Vec r = residuals(design, targets, c);
    const double e = r.max_abs();
    result.lawson_iterations = it + 1;
    if (e < 1e-14) break;  // exact interpolation
    if (std::fabs(prev_e - e) < 1e-12 * std::max(1.0, e)) break;
    prev_e = e;
    // Lawson update: w_i <- w_i * |r_i|, renormalized.
    double sum = 0.0;
    for (std::size_t i = 0; i < k_samples; ++i) {
      w[i] *= std::fabs(r[i]);
      sum += w[i];
    }
    if (sum <= 0.0) break;
    for (auto& wi : w) wi /= sum;
    LinearSolveReport step = weighted_ls(design, targets, w, options.ridge);
    if (!step.ok()) {
      // Keep the last good iterate; the exchange stage can still refine it.
      result.note = "Lawson step " + std::to_string(it) +
                    " lost the normal equations; kept previous iterate";
      break;
    }
    c = std::move(step.x);
  }

  // ---- Stage 2: exchange refinement with exact support LPs.
  Vec r = residuals(design, targets, c);
  double e_full = r.max_abs();
  std::set<std::size_t> support;
  {
    // Seed with the samples of largest residual.
    std::vector<std::size_t> idx(k_samples);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    const std::size_t seed =
        std::min<std::size_t>(k_samples, 3 * (v + 1));
    std::partial_sort(idx.begin(), idx.begin() + seed, idx.end(),
                      [&r](std::size_t a, std::size_t b) {
                        return std::fabs(r[a]) > std::fabs(r[b]);
                      });
    support.insert(idx.begin(), idx.begin() + seed);
  }

  double e_support = 0.0;
  for (int round = 0; round < options.exchange_rounds; ++round) {
    if (stop_requested(options.control)) {
      result.note = "preempted during exchange refinement; kept best iterate";
      break;
    }
    result.exchange_rounds = round + 1;
    const std::vector<std::size_t> sup(support.begin(), support.end());
    const SupportSolution ss =
        solve_support_lp(design, targets, sup, options.control);
    if (!ss.ok) break;  // fall back to the best iterate found so far
    const Vec r2 = residuals(design, targets, ss.c);
    const double e2 = r2.max_abs();
    if (e2 < e_full) {
      c = ss.c;
      r = r2;
      e_full = e2;
    }
    e_support = ss.e;
    // e_support is a dual-feasible objective, hence a lower bound on the
    // scenario optimum; when the achieved full error matches it, the
    // solution is LP-optimal.
    if (e2 <= ss.e + options.exchange_tol) {
      c = ss.c;
      r = r2;
      e_full = e2;
      result.exact = true;
      break;
    }
    // Add the worst violators to the support.
    std::vector<std::size_t> idx(k_samples);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    const std::size_t add = std::min<std::size_t>(
        k_samples, static_cast<std::size_t>(options.exchange_add_per_round));
    std::partial_sort(idx.begin(), idx.begin() + add, idx.end(),
                      [&r2](std::size_t a, std::size_t b) {
                        return std::fabs(r2[a]) > std::fabs(r2[b]);
                      });
    bool grew = false;
    for (std::size_t i = 0; i < add; ++i)
      grew |= support.insert(idx[i]).second;
    if (!grew) break;  // support saturated; e_full is our best answer
  }

  result.coefficients = c;
  result.error = e_full;
  result.support_error = e_support;
  // Report the active samples (residual within tolerance of the max).
  for (std::size_t i = 0; i < k_samples; ++i)
    if (std::fabs(r[i]) >= e_full - 1e-9 * std::max(1.0, e_full))
      result.support.push_back(i);
  return result;
}

}  // namespace scs
