// E6 -- serial-vs-parallel wall clock for the four parallel hot paths
// (scenario generation, Monte-Carlo safety, SDP Schur assembly, dense
// matmul), with a bitwise-determinism cross-check between thread counts.
//
// Each workload runs once with the pool forced to a single thread and once
// at the default width (SCS_THREADS or hardware concurrency); the outputs
// must match bit for bit, and the timing ratio is the observed speedup.
// Results are printed and written to BENCH_parallel.json; at pool width 1
// the bench prints them but refuses to write the file (exit 3).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "barrier/mc_safety.hpp"
#include "math/mat.hpp"
#include "obs/ledger.hpp"
#include "opt/sdp.hpp"
#include "pac/pac_fit.hpp"
#include "systems/benchmarks.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct WorkloadResult {
  std::string name;
  double serial_seconds = 0.0;
  double parallel_seconds = 0.0;
  bool identical = false;
};

/// Run `work` (which returns a flat double fingerprint of its output) at one
/// thread and at the default width, timing both and comparing bits. Each
/// mode runs `reps` times and keeps the minimum wall clock, so the reported
/// speedup compares best-case against best-case instead of first-run jitter.
/// `pre_parallel` / `post_parallel` bracket the parallel-mode runs (used by
/// the sdp_schur workload to force the pre-gate pooled path).
template <typename Work>
WorkloadResult run_workload(const std::string& name, const Work& work,
                            int reps = 3,
                            const std::function<void()>& pre_parallel = {},
                            const std::function<void()>& post_parallel = {}) {
  WorkloadResult r;
  r.name = name;
  r.serial_seconds = std::numeric_limits<double>::infinity();
  r.parallel_seconds = std::numeric_limits<double>::infinity();
  std::vector<double> serial_out, parallel_out;
  // Interleave the two modes (A/B A/B ...): clock-frequency drift and noisy
  // neighbours then hit both legs alike instead of biasing whichever mode
  // happened to run second.
  for (int i = 0; i < reps; ++i) {
    set_parallel_threads(1);
    {
      Stopwatch sw;
      serial_out = work();
      r.serial_seconds = std::min(r.serial_seconds, sw.seconds());
    }
    set_parallel_threads(0);  // SCS_THREADS / hardware default
    if (pre_parallel) pre_parallel();
    {
      Stopwatch sw;
      parallel_out = work();
      r.parallel_seconds = std::min(r.parallel_seconds, sw.seconds());
    }
    if (post_parallel) post_parallel();
  }
  r.identical = bits_equal(serial_out, parallel_out);
  return r;
}

std::vector<double> scenario_workload() {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const ScalarFn fn = [](const Vec& x) {
    return std::tanh(2.0 * x[0] - 0.7 * x[1] + 0.3 * x[0] * x[1]);
  };
  // One degree-3 attempt at eps small enough to demand a large K: the cost
  // is dominated by scenario sampling + design-matrix evaluation (the
  // parallel path), not by a long degree schedule.
  PacSettings settings = bench.pac;
  settings.max_degree = 3;
  settings.eps_list = {0.001};  // Table-1 scale: K = 49632, capped below
  PacFitOptions opts;
  opts.max_samples = 30000;
  Rng rng(11);
  const PacResult pac =
      pac_approximate(fn, bench.ccds.domain, settings, rng, opts);
  std::vector<double> out{pac.model.error, pac.model.eps,
                          static_cast<double>(pac.model.samples)};
  // Fingerprint the fitted polynomial on a fixed grid.
  Rng grid(99);
  for (int i = 0; i < 32; ++i) {
    const Vec x(grid.uniform_vector(bench.ccds.num_states, -1.0, 1.0));
    out.push_back(pac.model.poly.evaluate(x));
  }
  return out;
}

std::vector<double> mc_safety_workload() {
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const ControlLaw law = [&bench](const Vec& x) {
    return Vec{-bench.ccds.control_bound * std::tanh(x[0] + 0.5 * x[1])};
  };
  McSafetyConfig cfg;
  cfg.rollouts = 2000;
  cfg.dt = bench.rl.dt;
  cfg.max_steps = 400;
  Rng rng(12);
  const McSafetyResult mc = estimate_safety(bench.ccds, law, cfg, rng);
  return {static_cast<double>(mc.violations), mc.violation_rate,
          mc.violation_upper_bound};
}

/// Gram-sized block (n x n, 2n random sparse constraints) as in
/// BM_SdpGramBlock, solved `solves` times per call so one timing sample is
/// tens of milliseconds: large against timer granularity and scheduler
/// hiccups. Every size used here sits *below* the Schur parallel gate
/// (schur_parallel_threshold()), so the assembly stays serial at any pool
/// width -- the historical 0.74x slowdown through the pool at this scale is
/// exactly what the gate removes; the sdp_schur_gate measurement in main()
/// times the pre-gate pooled path against it.
std::vector<double> sdp_workload(std::size_t n, int solves) {
  Rng rng(13);
  SdpProblem p;
  p.block_dims = {n};
  p.block_obj_weight = {1.0};
  for (std::size_t i = 0; i < 2 * n; ++i) {
    SdpConstraint c;
    const std::size_t r = rng.index(n);
    const std::size_t cc = r + rng.index(n - r);
    const double v = rng.uniform(-1.0, 1.0);
    c.entries.push_back({0, r, cc, v});
    c.rhs = (r == cc) ? v : 0.0;
    p.constraints.push_back(c);
  }
  SdpSolution res;
  for (int rep = 0; rep < solves; ++rep) res = solve_sdp(p);
  std::vector<double> out{res.primal_objective, res.duality_gap};
  for (const Mat& x : res.x)
    for (std::size_t i = 0; i < x.rows(); ++i)
      for (std::size_t j = 0; j < x.cols(); ++j) out.push_back(x(i, j));
  return out;
}

std::vector<double> matmul_workload() {
  const std::size_t n = 384;
  Rng rng(14);
  Mat a(n, n), b(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) {
      a(i, j) = rng.normal();
      b(i, j) = rng.normal();
    }
  const Mat c = matmul(a, b);
  const Mat atb = matmul_at_b(a, b);
  const Mat abt = matmul_a_bt(a, b);
  std::vector<double> out;
  out.reserve(3 * n * n);
  for (const Mat* m : {&c, &atb, &abt})
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) out.push_back((*m)(i, j));
  return out;
}

}  // namespace
}  // namespace scs

int main() {
  using namespace scs;
  const std::size_t threads = parallel_threads();
  std::cout << "=== Parallel hot-path benchmark (default width " << threads
            << "; SCS_THREADS to change) ===\n";

  std::vector<WorkloadResult> results;
  results.push_back(run_workload("scenario_generation", scenario_workload));
  results.push_back(run_workload("mc_safety", mc_safety_workload));
  results.push_back(run_workload(
      "sdp_schur", [] { return sdp_workload(48, 5); }, 15));
  results.push_back(run_workload("matmul", matmul_workload));
  set_parallel_threads(0);

  // Gate check: the gated (serial) Schur assembly that now ships must be at
  // least as fast as the pre-gate pooled path it replaced. Measured on the
  // shape the gate protects -- many constraints on a *small* Gram block
  // (here 16 x 16 with 32 constraints, the scale of the SOS multiplier
  // blocks in the barrier program), where a chunk's work is microseconds
  // and the fork/join handshake dominates -- and at pool width 4, because
  // with zero workers the pooled path degenerates to the same inline loop
  // and there is nothing to compare. Both runs are bitwise-identical by
  // construction (disjoint column writes); the ratio is what the size gate
  // buys, and must never fall below 1.0.
  double gated_seconds = std::numeric_limits<double>::infinity();
  double pregate_seconds = std::numeric_limits<double>::infinity();
  bool gate_identical = false;
  set_parallel_threads(4);
  {
    std::vector<double> gated_out, pregate_out;
    for (int i = 0; i < 15; ++i) {  // interleaved, like run_workload
      {
        Stopwatch sw;
        gated_out = sdp_workload(16, 40);
        gated_seconds = std::min(gated_seconds, sw.seconds());
      }
      set_schur_parallel_threshold(0);  // force the pre-gate pooled path
      {
        Stopwatch sw;
        pregate_out = sdp_workload(16, 40);
        pregate_seconds = std::min(pregate_seconds, sw.seconds());
      }
      reset_schur_parallel_threshold();
    }
    gate_identical = bits_equal(gated_out, pregate_out);
  }
  set_parallel_threads(0);
  const double gate_speedup =
      (gated_seconds > 0.0) ? pregate_seconds / gated_seconds : 0.0;

  bool all_identical = true;
  std::ostringstream json;
  json << "{\"threads\":" << threads << ",\"workloads\":[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& r = results[i];
    const double speedup =
        (r.parallel_seconds > 0.0) ? r.serial_seconds / r.parallel_seconds
                                   : 0.0;
    all_identical = all_identical && r.identical;
    std::cout << "  " << r.name << ": serial " << r.serial_seconds
              << " s, parallel " << r.parallel_seconds << " s, speedup "
              << speedup << "x, bitwise "
              << (r.identical ? "identical" : "DIFFERENT") << "\n";
    json << (i ? "," : "") << "{\"name\":\"" << r.name
         << "\",\"serial_seconds\":" << r.serial_seconds
         << ",\"parallel_seconds\":" << r.parallel_seconds
         << ",\"speedup\":" << speedup << ",\"bitwise_identical\":"
         << (r.identical ? "true" : "false") << "}";
  }
  std::cout << "  sdp_schur_gate: gated " << gated_seconds << " s, pre-gate "
            << "pooled " << pregate_seconds << " s, gate speedup "
            << gate_speedup << "x, bitwise "
            << (gate_identical ? "identical" : "DIFFERENT") << "\n";
  json << ",{\"name\":\"sdp_schur_gate\",\"pool_width\":4"
       << ",\"gated_seconds\":" << gated_seconds
       << ",\"pregate_pooled_seconds\":" << pregate_seconds
       << ",\"gate_speedup\":" << gate_speedup << ",\"bitwise_identical\":"
       << (gate_identical ? "true" : "false") << "}";
  json << "]}";
  // At pool width 1 the "parallel" runs are the serial ones again, so a
  // file recorded there measures nothing: refuse to write it, exiting 3 as
  // e2ebench/run.py does.
  if (threads <= 1) {
    std::cerr << "bench_parallel: refusing to record BENCH_parallel.json at "
                 "pool width "
              << threads << " (needs SCS_THREADS >= 2 on a multi-core host)\n";
    return 3;
  }
  std::ofstream("BENCH_parallel.json") << json.str() << "\n";
  std::cout << "wrote BENCH_parallel.json\n";
  if (ledger_append_bench("bench_parallel", json.str()))
    std::cout << "ledger record appended to " << resolve_ledger_path("")
              << "\n";
  if (!all_identical) {
    std::cout << "ERROR: thread-count-dependent output detected\n";
    return 1;
  }
  if (!gate_identical) {
    std::cout << "ERROR: gated and pooled Schur assembly disagree bitwise\n";
    return 1;
  }
  // The gated path must never be slower than the pooled path it replaced:
  // on the small-block shape above the handshake overhead the gate removes
  // is well clear of timing noise.
  if (gate_speedup < 1.0) {
    std::cout << "ERROR: gated sdp_schur assembly slower than the pooled "
                 "path it replaced (gate speedup " << gate_speedup << ")\n";
    return 1;
  }
  return 0;
}
