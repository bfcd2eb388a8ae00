// Solver-core speed layer: SIMD kernel equivalence and Newton-polytope Gram
// pruning.
//
// The SIMD contract (src/math/simd.hpp) is that the AVX2 and scalar paths
// are bitwise identical: elementwise kernels never use FMA, and `dot` uses
// the same four-lane accumulation in both implementations. These tests pin
// that contract directly (kernel vs kernel over ragged lengths) and
// end-to-end (a dense matmul forced through each path). The AVX2 halves
// skip themselves on machines -- or SCS_SIMD=OFF builds -- without the
// vector kernels, so the same test binary runs everywhere.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "math/mat.hpp"
#include "math/simd.hpp"
#include "obs/metrics.hpp"
#include "poly/basis.hpp"
#include "poly/polynomial.hpp"
#include "sos/putinar.hpp"
#include "sos/sos_program.hpp"
#include "systems/benchmarks.hpp"
#include "util/rng.hpp"

namespace scs {
namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

std::vector<double> random_doubles(std::size_t n, Rng& rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng.normal();
  return v;
}

/// Restores the CPU-detected kernel on scope exit so a failing ASSERT in
/// one test cannot leak a forced kernel into the next.
struct KernelGuard {
  explicit KernelGuard(simd::Kernel k) { simd::set_kernel_override(k); }
  ~KernelGuard() { simd::set_kernel_override(simd::Kernel::kAuto); }
};

// ---- SIMD-vs-scalar equivalence -------------------------------------------

class SimdEquivalence : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::avx2_available())
      GTEST_SKIP() << "AVX2 kernels unavailable in this build";
  }
};

// Ragged lengths cover every remainder class of the 4-wide vector body,
// including the empty and sub-vector-width cases.
constexpr std::size_t kLengths[] = {0, 1, 2, 3, 4, 5, 7, 8,
                                    15, 16, 17, 31, 64, 67};

TEST_F(SimdEquivalence, ElementwiseKernelsBitwiseIdentical) {
  Rng rng(1);
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = random_doubles(n, rng);
    const std::vector<double> base = random_doubles(n, rng);
    const double s = rng.normal();

    auto run = [&](simd::Kernel k) {
      KernelGuard guard(k);
      std::vector<double> axpy_y = base, add_y = base, sub_y = base,
                          scale_y = base;
      simd::axpy(axpy_y.data(), s, x.data(), n);
      simd::add(add_y.data(), x.data(), n);
      simd::sub(sub_y.data(), x.data(), n);
      simd::scale(scale_y.data(), s, n);
      std::vector<double> out;
      for (const auto* v : {&axpy_y, &add_y, &sub_y, &scale_y})
        out.insert(out.end(), v->begin(), v->end());
      return out;
    };

    EXPECT_TRUE(bits_equal(run(simd::Kernel::kScalar),
                           run(simd::Kernel::kAvx2)))
        << "elementwise kernels diverge at n = " << n;
  }
}

TEST_F(SimdEquivalence, DotBitwiseIdenticalAcrossKernels) {
  Rng rng(2);
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = random_doubles(n, rng);
    const std::vector<double> y = random_doubles(n, rng);
    double scalar = 0.0, avx2 = 0.0;
    {
      KernelGuard guard(simd::Kernel::kScalar);
      scalar = simd::dot(x.data(), y.data(), n);
    }
    {
      KernelGuard guard(simd::Kernel::kAvx2);
      avx2 = simd::dot(x.data(), y.data(), n);
    }
    // Exact equality, not a tolerance: both paths implement the same
    // four-lane accumulation with the same (l0+l1)+(l2+l3) combine.
    EXPECT_EQ(scalar, avx2) << "dot diverges at n = " << n;
  }
}

TEST(SimdKernels, DotMatchesDocumentedLaneStructure) {
  // The contract in simd.hpp: lane j sums terms at indices == j (mod 4),
  // lanes combine as (l0 + l1) + (l2 + l3). Any kernel must reproduce this
  // bit for bit.
  Rng rng(3);
  for (const std::size_t n : kLengths) {
    const std::vector<double> x = random_doubles(n, rng);
    const std::vector<double> y = random_doubles(n, rng);
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) lane[i % 4] += x[i] * y[i];
    const double expected = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    EXPECT_EQ(simd::dot(x.data(), y.data(), n), expected)
        << "lane structure violated at n = " << n;
  }
}

TEST(SimdKernels, BlockedKernelsMatchPlainKernels) {
  // dot_rows / accumulate_rows / combine_rows against dot and axpy entry
  // by entry, under every kernel this binary has: shapes cover each
  // register tile and its remainders, strides exceed the used width, and
  // a third of the combine coefficients are zero (skipped terms).
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  if (simd::avx2_available()) kernels.push_back(simd::Kernel::kAvx2);
  struct Shape {
    std::size_t rows, m, n;
  };
  const Shape shapes[] = {{1, 1, 1},  {2, 4, 3},   {3, 5, 4},  {5, 7, 9},
                          {4, 8, 17}, {7, 13, 33}, {64, 3, 64}, {64, 64, 3},
                          {6, 1, 64}, {9, 20, 2}};
  Rng rng(6);
  for (const Shape& sh : shapes) {
    const std::size_t xs = sh.n + 2, ws = sh.n + 1, as = sh.m + 3;
    const std::vector<double> x = random_doubles(sh.rows * xs, rng);
    const std::vector<double> w = random_doubles(sh.m * ws, rng);
    std::vector<double> a = random_doubles(sh.rows * as, rng);
    for (std::size_t i = 0; i < a.size(); i += 3) a[i] = 0.0;
    const std::vector<double> g0 = random_doubles(sh.m * ws, rng);
    for (const simd::Kernel k : kernels) {
      KernelGuard guard(k);
      std::vector<double> dots(sh.rows * sh.m), want_dots(sh.rows * sh.m);
      simd::dot_rows(x.data(), sh.rows, xs, w.data(), sh.m, ws, sh.n,
                     dots.data(), sh.m);
      for (std::size_t r = 0; r < sh.rows; ++r)
        for (std::size_t i = 0; i < sh.m; ++i)
          want_dots[r * sh.m + i] =
              simd::dot(w.data() + i * ws, x.data() + r * xs, sh.n);
      EXPECT_TRUE(bits_equal(dots, want_dots));

      std::vector<double> g = g0, want_g = g0;
      simd::accumulate_rows(g.data(), ws, a.data(), as, sh.m, x.data(), xs,
                            sh.n, sh.rows);
      for (std::size_t r = 0; r < sh.rows; ++r)
        for (std::size_t i = 0; i < sh.m; ++i)
          simd::axpy(want_g.data() + i * ws, a[r * as + i], x.data() + r * xs,
                     sh.n);
      EXPECT_TRUE(bits_equal(g, want_g));

      std::vector<double> comb(sh.rows * xs, 7.0), want_comb(sh.rows * xs, 7.0);
      simd::combine_rows(a.data(), as, sh.m, w.data(), ws, sh.n, comb.data(),
                         xs, sh.rows);
      for (std::size_t r = 0; r < sh.rows; ++r) {
        double* out = want_comb.data() + r * xs;
        std::fill(out, out + sh.n, 0.0);
        for (std::size_t i = 0; i < sh.m; ++i)
          if (a[r * as + i] != 0.0)
            simd::axpy(out, a[r * as + i], w.data() + i * ws, sh.n);
      }
      EXPECT_TRUE(bits_equal(comb, want_comb));
      if (HasFailure()) {
        ADD_FAILURE() << "shape " << sh.rows << "x" << sh.m << "x" << sh.n
                      << " on " << simd::active_kernel_name();
        return;
      }
    }
  }
}

TEST_F(SimdEquivalence, DenseMatmulBitwiseIdentical) {
  // End-to-end: the matmul tiles funnel through axpy/dot, so a whole
  // product must match bit for bit across kernels (ragged size on purpose).
  const std::size_t n = 53;
  Rng rng(4);
  Mat a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  auto flatten = [&](simd::Kernel k) {
    KernelGuard guard(k);
    const Mat c = matmul(a, b);
    std::vector<double> out;
    out.reserve(n * n);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) out.push_back(c(i, j));
    return out;
  };
  EXPECT_TRUE(bits_equal(flatten(simd::Kernel::kScalar),
                         flatten(simd::Kernel::kAvx2)));
}

// ---- Newton-polytope Gram pruning -----------------------------------------

TEST(GramPruning, FixpointRemovesConstantThenLinearMonomials) {
  // p = (x1^2+x2^2+x3^2)^2 + sum x_i^4 over the full degree-2 basis: round
  // one kills the constant monomial (its diagonal equation is p's zero
  // constant coefficient); with it gone, each x_i^2 equation becomes
  // diagonal-only and round two kills the linear monomials. 10 -> 6.
  const std::size_t n = 3;
  Polynomial sum_sq(n);
  for (std::size_t i = 0; i < n; ++i)
    sum_sq += Polynomial::variable(n, i).pow(2);
  Polynomial p = sum_sq * sum_sq;
  for (std::size_t i = 0; i < n; ++i)
    p += Polynomial::variable(n, i).pow(4);

  SosProgram prog(n);
  const auto s = prog.add_sos_poly(monomials_up_to(n, 2));
  prog.add_identity(-p, {{Polynomial::constant(n, 1.0), s, {}}});

  const auto stats = prog.gram_prune_stats();
  ASSERT_EQ(stats.original_dims.size(), 1u);
  EXPECT_EQ(stats.original_dims[0], 10u);
  EXPECT_EQ(stats.pruned_dims[0], 6u);
  EXPECT_EQ(stats.removed(), 4u);
  EXPECT_GE(stats.rounds, 2);

  prog.set_gram_pruning(true);
  EXPECT_EQ(prog.compile().block_dims[0], 6u);
  prog.set_gram_pruning(false);
  EXPECT_EQ(prog.compile().block_dims[0], 10u);
}

TEST(GramPruning, SameVerdictAndCertificateAcrossBenchmarkDimensions) {
  // One SOS membership problem per Table-2 benchmark, posed in that
  // benchmark's state dimension: f = sum (j+1) x_j^2 over the full
  // degree-1 Gram basis. The constant monomial is always dead weight, so
  // the pruner must shrink every block by one -- and the pruned and
  // unpruned solves must agree on feasibility and on the extracted
  // polynomial (the Gram matrix is uniquely determined here).
  int reduced = 0;
  for (const BenchmarkId id : all_benchmark_ids()) {
    const Benchmark bench = make_benchmark(id);
    const std::size_t n = bench.ccds.num_states;
    Polynomial f(n);
    for (std::size_t j = 0; j < n; ++j)
      f += Polynomial::constant(n, static_cast<double>(j + 1)) *
           Polynomial::variable(n, j).pow(2);

    SosProgram prog(n);
    const auto s = prog.add_sos_poly(monomials_up_to(n, 1));
    prog.add_identity(-f, {{Polynomial::constant(n, 1.0), s, {}}});

    const auto stats = prog.gram_prune_stats();
    ASSERT_EQ(stats.original_dims[0], n + 1) << bench.name;
    if (stats.pruned_dims[0] < stats.original_dims[0]) ++reduced;

    prog.set_gram_pruning(false);
    const auto full = prog.solve();
    prog.set_gram_pruning(true);
    const auto pruned = prog.solve();
    ASSERT_TRUE(full.feasible) << bench.name;
    ASSERT_TRUE(pruned.feasible) << bench.name;
    EXPECT_LT(max_coefficient_diff(full.value(s), pruned.value(s)), 1e-5)
        << bench.name;
  }
  // Acceptance: a strictly smaller Gram block on at least 3 of C1..C10
  // (here: on all of them).
  EXPECT_GE(reduced, 3);
}

TEST(GramPruning, PutinarOptionFlowsThroughAndCertifiesBothWays) {
  // f = g + 0.2 on the unit ball {g >= 0}, g = 1 - |x|^2: certifiable with
  // and without pruning, with matching multipliers.
  const std::size_t n = 2;
  Polynomial g = Polynomial::constant(n, 1.0);
  for (std::size_t i = 0; i < n; ++i)
    g -= Polynomial::variable(n, i).pow(2);
  const Polynomial f = g + Polynomial::constant(n, 0.2);

  PutinarOptions off;
  const auto cert_off = certify_nonnegativity(f, {g}, off);
  PutinarOptions on;
  on.prune_gram = true;
  const auto cert_on = certify_nonnegativity(f, {g}, on);
  ASSERT_TRUE(cert_off.has_value());
  ASSERT_TRUE(cert_on.has_value());
  EXPECT_LT(max_coefficient_diff(cert_off->sigma0, cert_on->sigma0), 1e-4);
}

TEST(GramPruning, NeverEmptiesABlock) {
  // Even the trivial program s == 0 must keep a 1x1 block: the pruner's
  // job is to shrink, not to delete the variable.
  SosProgram prog(1);
  prog.add_sos_poly(monomials_up_to(1, 0));
  const auto stats = prog.gram_prune_stats();
  EXPECT_GE(stats.pruned_dims[0], 1u);
}

TEST(GramPruning, PruneMetricsCountRemovedMonomials) {
  set_metrics_enabled(true);
  MetricsRegistry::instance().reset_for_tests();

  SosProgram prog(2);
  const auto s = prog.add_sos_poly(monomials_up_to(2, 1));
  Polynomial f(2);
  for (std::size_t j = 0; j < 2; ++j)
    f += Polynomial::variable(2, j).pow(2);
  prog.add_identity(-f, {{Polynomial::constant(2, 1.0), s, {}}});
  prog.set_gram_pruning(true);
  ASSERT_TRUE(prog.solve().feasible);

  EXPECT_GE(
      MetricsRegistry::instance().counter("sos.prune.removed").value(), 1u);
  set_metrics_enabled(false);
}

}  // namespace
}  // namespace scs
