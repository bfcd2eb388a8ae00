// Extension showcase: beyond the paper's barrier pipeline, the library can
//   (1) synthesize a global Lyapunov function for the closed loop,
//   (2) *prove* barrier conditions over boxes with interval branch-and-
//       bound (no sampling gaps), and
//   (3) attach Hoeffding-style confidence bounds to Monte-Carlo safety
//       estimates.
// All three run here on a hand-closed loop of the paper's pendulum.
#include <cmath>
#include <iostream>

#include "barrier/lyapunov.hpp"
#include "barrier/mc_safety.hpp"
#include "barrier/synthesis.hpp"
#include "sos/interval.hpp"
#include "systems/benchmarks.hpp"

int main() {
  using namespace scs;
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);

  // The gravity-compensating controller (see examples/pendulum_study.cpp).
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const Polynomial controller =
      x1 * 9.875 - x1.pow(3) * 1.56 + x1.pow(5) * 0.056 - x1 - x2 * 2.0;
  const auto closed = bench.ccds.closed_loop({controller});

  // ---- (1) Global Lyapunov function.
  std::cout << "=== Lyapunov synthesis for the closed loop ===\n";
  const LyapunovResult lyap = synthesize_lyapunov(closed);
  if (lyap.success) {
    std::cout << "V(x) = " << lyap.function.to_string(4) << "  (degree "
              << lyap.degree << ")\n\n";
  } else {
    std::cout << "no global Lyapunov function found: "
              << lyap.failure_reason << "\n\n";
  }

  // ---- (2) Barrier certificate + interval proof of its conditions.
  std::cout << "=== Barrier certificate + interval verification ===\n";
  BarrierConfig bcfg;
  bcfg.degree_schedule = bench.barrier_degrees;
  const BarrierResult barrier =
      synthesize_barrier(bench.ccds, {controller}, bcfg);
  if (!barrier.success) {
    std::cout << "barrier stage failed: " << barrier.failure_reason << "\n";
    return 1;
  }
  std::cout << "B(x) of degree " << barrier.degree << " found in "
            << barrier.seconds << " s\n";

  // Condition (i) proven on the inscribed box of Theta (radius 2.2 ball).
  const double r = 2.2 / std::sqrt(2.0);
  const BoundResult cond1 = prove_lower_bound(
      barrier.barrier, Box::centered(2, r), 0.0);
  std::cout << "B >= 0 on the inscribed box of Theta: "
            << (cond1.proven ? "PROVEN" : "not proven") << " ("
            << cond1.boxes_processed << " boxes)\n";

  // Condition (ii) proven on an unsafe corner box (inside X_u).
  const Box corner(Vec{2.6, 3.0}, Vec{3.14, 5.0});
  const BoundResult cond2 =
      prove_lower_bound(-barrier.barrier, corner, 0.0);
  std::cout << "B <= 0 on an X_u corner box:            "
            << (cond2.proven ? "PROVEN" : "not proven") << " ("
            << cond2.boxes_processed << " boxes)\n\n";

  // ---- (3) Monte-Carlo safety with confidence.
  std::cout << "=== Monte-Carlo safety estimate ===\n";
  Rng rng(7);
  McSafetyConfig mcfg;
  mcfg.rollouts = 500;
  const McSafetyResult mc =
      estimate_safety(bench.ccds, {controller}, mcfg, rng);
  std::cout << mc.violations << "/" << mc.rollouts
            << " rollouts violated; P(violation) <= "
            << mc.violation_upper_bound
            << " with confidence 1 - 1e-6 (Hoeffding)\n";
  return 0;
}
