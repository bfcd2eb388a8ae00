// Barrier-ladder benchmark: the ladder at pool width 1 against width nproc
// on C1's barrier stage, plus the guarantee that the width never changes
// the answer. Results are printed and written to BENCH_race.json; the
// self-checks mirror baselines/race.json (width-nproc result bitwise equal
// to the width-1 result, >= 1.5x faster at 4 lanes).
//
// The workload is the primary rung of C1's barrier ladder at the
// synthesize_cli --fast budget and pipeline seed 2024 (e2ebench's
// c1_cli_fast): the PAC surrogate of that run under the constant-lambda
// strategy, without the pipeline's lower-degree surrogates or its
// alternating rescue. No arm of the rung certifies, so all 8 arms run to
// the end at both widths -- the case where spreading the arms across the
// pool pays in full, and where a ladder that fell back to serial would
// read ~1.0x.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "barrier/synthesis.hpp"
#include "core/pipeline.hpp"
#include "obs/ledger.hpp"
#include "systems/benchmarks.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

/// Every BarrierResult field but the wall-clock seconds, compared exactly.
bool bitwise_equal(const BarrierResult& a, const BarrierResult& b) {
  return a.success == b.success && a.barrier == b.barrier &&
         a.lambda == b.lambda && a.degree == b.degree &&
         a.strategy_used == b.strategy_used && a.attempts == b.attempts &&
         a.failure_reason == b.failure_reason &&
         a.max_identity_residual == b.max_identity_residual &&
         a.min_gram_eigenvalue == b.min_gram_eigenvalue &&
         a.accepted_via == b.accepted_via && a.winner_arm == b.winner_arm &&
         a.winner_candidate == b.winner_candidate &&
         a.winner_arm_desc == b.winner_arm_desc &&
         a.arms_launched == b.arms_launched &&
         a.arms_cancelled == b.arms_cancelled;
}

/// Best-of-`reps` wall time of the ladder at pool width `width`.
double time_ladder(std::size_t width, int reps, const Ccds& sys,
                   const std::vector<Polynomial>& controller,
                   const BarrierConfig& cfg, BarrierResult& result) {
  set_parallel_threads(width);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    Stopwatch sw;
    result = synthesize_barrier(sys, controller, cfg);
    const double t = sw.seconds();
    best = rep == 0 ? t : std::min(best, t);
  }
  return best;
}

}  // namespace
}  // namespace scs

int main() {
  using namespace scs;

  const bool fast = std::getenv("SCS_FAST") != nullptr;
  const int reps = fast ? 1 : 5;
  const std::size_t lanes =
      std::max(1u, std::thread::hardware_concurrency());

  // The C1 surrogate, from a run at the synthesize_cli --fast budget.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  PipelineConfig pipeline;
  pipeline.seed = 2024;
  pipeline.fast_mode = true;
  pipeline.pac_fit.max_samples = 50000;
  const SynthesisResult run = synthesize(bench, pipeline);
  // The pipeline's barrier config for that surrogate, primary rung only.
  BarrierConfig cfg = pipeline.barrier;
  cfg.degree_schedule = bench.barrier_degrees;
  cfg.seed = pipeline.seed + 2000;

  std::cout << "=== Barrier ladder benchmark (C1 fast surrogate, width 1 vs "
            << lanes << ", " << reps << " rep(s)) ===\n";

  BarrierResult serial, wide;
  const double serial_s =
      time_ladder(1, reps, bench.ccds, run.controller, cfg, serial);
  const double wide_s =
      time_ladder(lanes, reps, bench.ccds, run.controller, cfg, wide);
  set_parallel_threads(0);
  const double speedup = wide_s > 0.0 ? serial_s / wide_s : 0.0;
  const bool width_bitwise = bitwise_equal(serial, wide);

  std::cout << "  width 1:  " << (serial.success ? "certified" : "no arm")
            << ", " << serial.arms_launched << " arms, " << serial.attempts
            << " solves, best " << serial_s << " s\n"
            << "  width " << lanes << ":  "
            << (wide.success ? "certified" : "no arm") << ", best " << wide_s
            << " s\n"
            << "  speedup: " << speedup << "x (gate >= 1.5x at 4 lanes)\n"
            << "  width-" << lanes << " result vs width 1: "
            << (width_bitwise ? "bitwise-identical" : "MISMATCH") << "\n";

  std::ostringstream json;
  json << "{\"system\":\"C1\""
       << ",\"lanes\":" << lanes
       << ",\"reps\":" << reps
       << ",\"serial_seconds\":" << serial_s
       << ",\"ladder_seconds\":" << wide_s
       << ",\"ladder_speedup\":" << speedup
       << ",\"arms_launched\":" << serial.arms_launched
       << ",\"attempts\":" << serial.attempts
       << ",\"width_bitwise\":" << (width_bitwise ? "true" : "false")
       << "}";
  std::ofstream("BENCH_race.json") << json.str() << "\n";
  std::cout << "wrote BENCH_race.json\n";
  if (ledger_append_bench("bench_race", json.str()))
    std::cout << "ledger record appended to " << resolve_ledger_path("")
              << "\n";

  bool ok = true;
  if (!width_bitwise) {
    std::cerr << "FAIL: the width-" << lanes
              << " ladder result differs from the width-1 result\n";
    ok = false;
  }
  if (!fast && lanes >= 4 && speedup < 1.5) {
    std::cerr << "FAIL: the ladder at width " << lanes << " is only "
              << speedup << "x faster than at width 1 (need >= 1.5x)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
