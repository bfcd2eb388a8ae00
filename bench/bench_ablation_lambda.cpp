// E4 -- ablation for the Section 4 design choice: how lambda(x) is handled
// in the bilinear constraint of program (12).
//
// Strategies compared on three representative systems (with a known-safe
// polynomial controller so only the verification stage varies):
//   zero        lambda = 0                      (plain LMI)
//   constant    random negative constant        (the paper's LMI shortcut)
//   linear      random linear polynomial        (the paper's LMI shortcut)
//   alternating fix-lambda / fix-B alternation  (our PENBMI substitute)
//
// Reported: feasibility, solve time, number of SOS programs attempted.
#include <cmath>
#include <iomanip>
#include <iostream>

#include "barrier/synthesis.hpp"
#include "systems/benchmarks.hpp"
#include "util/stopwatch.hpp"

int main() {
  using namespace scs;

  struct Case {
    BenchmarkId id;
    Polynomial controller;
  };
  // Known-stabilizing controllers (the PAC stage's typical outputs).
  const auto pendulum_ctrl = [] {
    const auto x1 = Polynomial::variable(2, 0);
    const auto x2 = Polynomial::variable(2, 1);
    return x1 * 9.875 - x1.pow(3) * 1.56 + x1.pow(5) * 0.056 - x1 - x2 * 2.0;
  }();
  const auto linear_ctrl = [](std::size_t n, double gain) {
    Polynomial p(n);
    for (std::size_t i = 0; i < n; ++i)
      p += Polynomial::variable(n, i) * gain;
    return p;
  };

  const std::vector<Case> cases = {
      {BenchmarkId::kC1, pendulum_ctrl},
      {BenchmarkId::kC3, linear_ctrl(3, -0.5)},
      {BenchmarkId::kC5, linear_ctrl(5, -0.3)},
  };
  const std::vector<LambdaStrategy> strategies = {
      LambdaStrategy::kZero, LambdaStrategy::kConstant,
      LambdaStrategy::kLinear, LambdaStrategy::kAlternating};

  std::cout << "=== Ablation: lambda(x) strategy in the barrier program (12) "
               "===\n";
  std::cout << std::left << std::setw(7) << "Bench" << std::setw(18)
            << "strategy" << std::setw(10) << "feasible" << std::setw(7)
            << "d_B" << std::setw(12) << "time (s)" << std::setw(10)
            << "attempts" << "\n";

  for (const auto& c : cases) {
    const Benchmark bench = make_benchmark(c.id);
    for (const auto strategy : strategies) {
      BarrierConfig cfg;
      cfg.degree_schedule = bench.barrier_degrees;
      cfg.strategies = {strategy};
      Stopwatch sw;
      const BarrierResult r =
          synthesize_barrier(bench.ccds, {c.controller}, cfg);
      std::cout << std::left << std::setw(7) << bench.name << std::setw(18)
                << to_string(strategy) << std::setw(10)
                << (r.success ? "yes" : "no") << std::setw(7)
                << (r.success ? std::to_string(r.degree) : "-")
                << std::setw(12) << sw.seconds() << std::setw(10)
                << r.attempts << "\n"
                << std::flush;
    }
  }
  std::cout << "\n(expected shape: the constant/linear LMI shortcuts verify "
               "these cases\n quickly; lambda = 0 can fail near equilibria "
               "where L_f B = 0 on {B > 0};\n alternating matches the LMI "
               "results at higher cost)\n";
  return 0;
}
