// Tests for the discrete Chebyshev (minimax) fitter: exactness against
// brute-force LP solutions and classical equioscillation cases.
#include <gtest/gtest.h>

#include <cmath>

#include "opt/minimax_fit.hpp"
#include "util/check.hpp"
#include "opt/simplex.hpp"
#include "poly/basis.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

/// Brute-force exact solve of the full minimax LP (small K only).
double brute_force_minimax(const Mat& design, const Vec& targets) {
  const std::size_t k = design.rows();
  const std::size_t v = design.cols();
  LpProblem lp;
  lp.a = Mat(2 * k, 2 * v + 1 + 2 * k);
  lp.b = Vec(2 * k);
  lp.c = Vec(2 * v + 1 + 2 * k, 0.0);
  lp.c[2 * v] = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = 0; j < v; ++j) {
      lp.a(2 * i, j) = design(i, j);
      lp.a(2 * i, v + j) = -design(i, j);
      lp.a(2 * i + 1, j) = -design(i, j);
      lp.a(2 * i + 1, v + j) = design(i, j);
    }
    lp.a(2 * i, 2 * v) = -1.0;
    lp.a(2 * i + 1, 2 * v) = -1.0;
    lp.a(2 * i, 2 * v + 1 + 2 * i) = 1.0;
    lp.a(2 * i + 1, 2 * v + 1 + 2 * i + 1) = 1.0;
    lp.b[2 * i] = targets[i];
    lp.b[2 * i + 1] = -targets[i];
  }
  const LpSolution sol = solve_lp(lp);
  EXPECT_EQ(sol.status, LpStatus::kOptimal);
  return sol.x[2 * v];
}

Mat design_1d(const std::vector<double>& xs, int degree) {
  Mat d(xs.size(), degree + 1);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    double p = 1.0;
    for (int j = 0; j <= degree; ++j) {
      d(i, j) = p;
      p *= xs[i];
    }
  }
  return d;
}

TEST(Minimax, ConstantFitOfTwoPoints) {
  // Best constant approximation of {0, 1} is 1/2 with error 1/2.
  Mat design(2, 1, 1.0);
  const MinimaxFitResult fit = minimax_fit(design, Vec{0.0, 1.0});
  EXPECT_NEAR(fit.coefficients[0], 0.5, 1e-8);
  EXPECT_NEAR(fit.error, 0.5, 1e-8);
  EXPECT_TRUE(fit.exact);
}

TEST(Minimax, LineFitEquioscillation) {
  // Fit a line to y = x^2 on [-1, 1] sampled densely: the Chebyshev line is
  // y = 1/2 with error 1/2 (equioscillation at -1, 0, 1).
  std::vector<double> xs;
  for (int i = 0; i <= 200; ++i) xs.push_back(-1.0 + 0.01 * i);
  Vec targets(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) targets[i] = xs[i] * xs[i];
  const MinimaxFitResult fit = minimax_fit(design_1d(xs, 1), targets);
  EXPECT_NEAR(fit.error, 0.5, 1e-6);
  EXPECT_NEAR(fit.coefficients[0], 0.5, 1e-5);
  EXPECT_NEAR(fit.coefficients[1], 0.0, 1e-5);
}

TEST(Minimax, CubicApproximationOfAbs) {
  // Chebyshev approximation of |x| by cubics on [-1,1]: error = 1/8 with
  // p(x) = 1/8 + x^2 (classical result; x^3 coefficient 0).
  std::vector<double> xs;
  for (int i = 0; i <= 400; ++i) xs.push_back(-1.0 + 0.005 * i);
  Vec targets(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) targets[i] = std::fabs(xs[i]);
  const MinimaxFitResult fit = minimax_fit(design_1d(xs, 3), targets);
  EXPECT_NEAR(fit.error, 0.125, 2e-3);
}

TEST(Minimax, ExactInterpolationGivesZeroError) {
  // K == v samples of a polynomial: residual must vanish.
  Rng rng(4);
  std::vector<double> xs = {-1.0, -0.3, 0.2, 0.9};
  Vec targets(4);
  for (std::size_t i = 0; i < 4; ++i)
    targets[i] = 1.0 + 2.0 * xs[i] - xs[i] * xs[i] + 0.5 * xs[i] * xs[i] * xs[i];
  const MinimaxFitResult fit = minimax_fit(design_1d(xs, 3), targets);
  EXPECT_LT(fit.error, 1e-9);
}

class MinimaxVsBruteForce : public ::testing::TestWithParam<int> {};

TEST_P(MinimaxVsBruteForce, MatchesExactLpOptimum) {
  Rng rng(GetParam());
  const std::size_t k = 10 + rng.index(30);
  const std::size_t v = 2 + rng.index(3);
  Mat design(k, v);
  Vec targets(k);
  for (std::size_t i = 0; i < k; ++i) {
    design(i, 0) = 1.0;
    for (std::size_t j = 1; j < v; ++j) design(i, j) = rng.uniform(-1.0, 1.0);
    targets[i] = rng.uniform(-2.0, 2.0);
  }
  const MinimaxFitResult fit = minimax_fit(design, targets);
  const double exact = brute_force_minimax(design, targets);
  EXPECT_NEAR(fit.error, exact, 1e-5 + 1e-4 * exact);
  EXPECT_GE(fit.error, exact - 1e-9);  // reported error is always feasible
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinimaxVsBruteForce, ::testing::Range(1, 21));

/// Random instance whose design carries a copy of column 1 and an all-zero
/// column, so Phi restricted to any support is rank-deficient.
TEST(Minimax, RankDeficientDesignMatchesBruteForce) {
  for (int seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const std::size_t k = 40;
    Mat design(k, 6);
    Vec targets(k);
    for (std::size_t i = 0; i < k; ++i) {
      const double x1 = rng.uniform(-1.0, 1.0);
      const double x2 = rng.uniform(-1.0, 1.0);
      design.set_row(i, Vec{1.0, x1, x2, x1 * x2, x1, 0.0});
      targets[i] = std::sin(2.0 * x1) + 0.5 * x2 * x2;
    }
    const MinimaxFitResult fit = minimax_fit(design, targets);
    const double exact = brute_force_minimax(design, targets);
    EXPECT_TRUE(fit.exact) << "seed " << seed;
    EXPECT_NEAR(fit.error, exact, 1e-9 * exact) << "seed " << seed;
  }
}

/// The exchange must end LP-optimal on the micro-benchmark instances of
/// bench/bench_solvers.cpp (same generators and seeds): `exact` set, and the
/// achieved error within exchange_tol of the support optimum.
void expect_exact_exchange(const Mat& design, const Vec& targets) {
  const MinimaxOptions options;
  const MinimaxFitResult fit = minimax_fit(design, targets, options);
  EXPECT_TRUE(fit.exact);
  EXPECT_LE(fit.error - fit.support_error, options.exchange_tol);
}

class MinimaxSamplesSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MinimaxSamplesSweep, ExchangeEndsExact) {
  // BM_MinimaxFit_SamplesSweep.
  const std::size_t k = GetParam();
  Rng rng(1);
  Mat design(k, 6);
  Vec targets(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double x1 = rng.uniform(-1.0, 1.0);
    const double x2 = rng.uniform(-1.0, 1.0);
    design.set_row(i, Vec{1.0, x1, x2, x1 * x1, x1 * x2, x2 * x2});
    targets[i] = std::tanh(2.0 * x1 - x2);
  }
  expect_exact_exchange(design, targets);
}

INSTANTIATE_TEST_SUITE_P(K, MinimaxSamplesSweep,
                         ::testing::Values(std::size_t{1000},
                                           std::size_t{4096},
                                           std::size_t{16384}));

class MinimaxTemplateSweep : public ::testing::TestWithParam<int> {};

TEST_P(MinimaxTemplateSweep, ExchangeEndsExact) {
  // BM_MinimaxFit_TemplateSweep.
  const int degree = GetParam();
  Rng rng(2);
  const std::size_t n = 4;
  const auto basis = monomials_up_to(n, degree);
  const std::size_t k = 20000;
  Mat design(k, basis.size());
  Vec targets(k);
  for (std::size_t i = 0; i < k; ++i) {
    const Vec x(rng.uniform_vector(n, -1.0, 1.0));
    design.set_row(i, evaluate_basis(basis, x));
    targets[i] = std::tanh(x[0] - 0.3 * x[1] + x[2] * x[3]);
  }
  expect_exact_exchange(design, targets);
}

INSTANTIATE_TEST_SUITE_P(Degree, MinimaxTemplateSweep, ::testing::Range(1, 4));

TEST(Minimax, LargeSampleCountRuns) {
  // Scenario-scale K with a small basis (like the C4 row of Table 2).
  Rng rng(7);
  const std::size_t k = 50000;
  Mat design(k, 3);
  Vec targets(k);
  for (std::size_t i = 0; i < k; ++i) {
    const double x1 = rng.uniform(-1.0, 1.0);
    const double x2 = rng.uniform(-1.0, 1.0);
    design(i, 0) = 1.0;
    design(i, 1) = x1;
    design(i, 2) = x2;
    targets[i] = std::tanh(x1 - 0.5 * x2);
  }
  const MinimaxFitResult fit = minimax_fit(design, targets);
  EXPECT_GT(fit.error, 0.0);
  EXPECT_LT(fit.error, 0.2);  // tanh is nearly linear on this box
}

TEST(Minimax, RejectsEmptyProblem) {
  EXPECT_THROW(minimax_fit(Mat(), Vec()), PreconditionError);
}

}  // namespace
}  // namespace scs
