// Example 1 in detail: reproduces the paper's Table-1-style Algorithm-1
// trace on the pendulum, prints the surrogate controller and certificate,
// and dumps closed-loop trajectories for plotting.
//
// Run:  ./pendulum_study [trajectory.csv]
#include <cmath>
#include <fstream>
#include <iostream>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "ode/trajectory.hpp"
#include "pac/pac_fit.hpp"

int main(int argc, char** argv) {
  using namespace scs;

  const Benchmark bench = make_benchmark(BenchmarkId::kC1);

  // The auxiliary controller: a gravity-compensating law of the kind DDPG
  // converges to on this system (see examples/quickstart.cpp for the full
  // RL run). Using a fixed teacher makes this study deterministic.
  const ControlLaw teacher = [](const Vec& x) {
    const double x1 = x[0];
    return Vec{9.875 * x1 - 1.56 * x1 * x1 * x1 + 0.056 * std::pow(x1, 5) -
               x1 - 2.0 * x[1]};
  };

  // ---- Algorithm 1 with the paper's parameters (eta = 1e-6, tau = 0.05).
  Rng rng(7);
  const ScalarFn channel = [&teacher](const Vec& x) { return teacher(x)[0]; };
  const PacResult pac =
      pac_approximate(channel, bench.ccds.domain, bench.pac, rng);

  std::cout << "Algorithm 1 trace (compare with Table 1):\n"
            << format_table1(pac, bench.pac.tau) << "\n";
  if (!pac.success) {
    std::cout << "PAC approximation did not reach tau\n";
    return 1;
  }
  std::cout << "p(x) = " << pac.model.poly.to_string(5) << "\n\n";

  // ---- Barrier certificate for the closed loop under p(x).
  BarrierConfig bcfg;
  bcfg.degree_schedule = bench.barrier_degrees;
  const BarrierResult barrier =
      synthesize_barrier(bench.ccds, {pac.model.poly}, bcfg);
  if (!barrier.success) {
    std::cout << "barrier synthesis failed: " << barrier.failure_reason
              << "\n";
    return 1;
  }
  std::cout << "B(x) of degree " << barrier.degree << " found in "
            << barrier.seconds << " s (lambda = "
            << barrier.lambda.to_string(3) << ")\n"
            << "B(x) = " << barrier.barrier.to_string(5) << "\n\n";

  // ---- Trajectory dump from the rim of Theta.
  const std::string path = (argc > 1) ? argv[1] : "pendulum_trajectories.csv";
  std::ofstream csv(path);
  csv << "trajectory,t,x1,x2,B\n";
  const VectorField field =
      bench.ccds.closed_loop_field(std::vector<Polynomial>{pac.model.poly});
  for (int k = 0; k < 8; ++k) {
    const double angle = 2.0 * M_PI * k / 8.0;
    const Vec x0{2.2 * std::cos(angle), 2.2 * std::sin(angle)};
    SimulateOptions opts;
    opts.dt = 0.01;
    opts.max_steps = 1500;
    const Trajectory traj = simulate(field, x0, opts);
    for (std::size_t i = 0; i < traj.size(); i += 10) {
      csv << k << ',' << traj.times[i] << ',' << traj.states[i][0] << ','
          << traj.states[i][1] << ','
          << barrier.barrier.evaluate(traj.states[i]) << '\n';
    }
    const double r = traj.back().norm();
    std::cout << "trajectory " << k << ": start radius 2.2 -> final radius "
              << r << (r < 2.5 ? "  (safe)" : "  (UNSAFE)") << "\n";
  }
  std::cout << "\nwrote " << path << "\n";
  return 0;
}
