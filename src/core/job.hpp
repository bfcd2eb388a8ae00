// Re-entrant synthesis job unit: one (benchmark, config) work item plus the
// runtime context (cancellation, shared cache, ledger identity) it runs
// under. synthesize_cli, fuzz_cli, and synthesize_server all drive this same
// unit, so CLI and server runs of the same job are bitwise identical.
//
// A JobContext is observation/control plumbing only: nothing in it enters
// cache keys, artifacts, or results (absent a stop), so two runs differing
// only in their context produce identical outputs.
#pragma once

#include <cstdint>
#include <string>

#include "core/pipeline.hpp"
#include "util/cancellation.hpp"

namespace scs {

/// Per-run context a job owner (daemon, CLI signal handler) hands to the
/// job it runs. All pointers are borrowed and may be null. A run's RNG
/// streams and obs sinks are derived deterministically from the
/// PipelineConfig (seed / obs fields); they belong to the problem
/// statement, not here -- precisely so context never changes results.
struct JobContext {
  /// Cooperative cancellation + wall-clock deadline. Polled at stage
  /// boundaries, once per DDPG environment step, and inside the SDP /
  /// simplex iteration loops. A stopped job reports verdict "CANCELLED" or
  /// "DEADLINE" and stores no artifact for the preempted (or any later)
  /// stage.
  const JobControl* control = nullptr;
  /// Shared stage cache. Null => the job opens its own from config.store.
  /// The server shares one handle across all jobs so per-job setup stays
  /// off the warm-hit path.
  StageCache* cache = nullptr;
  /// Ledger "source" tag recorded with this run.
  std::string source = "synthesize";
  /// Serve request id ("" outside the server). Installed as the trace
  /// correlation id for the run's full span tree -- every span/instant the
  /// run (and its pool fan-out) records carries it as the "rid" arg, so one
  /// request's end-to-end timeline can be cut from a daemon trace. Pure
  /// observation: never hashed, cached, or echoed into results.
  std::string request_id;
};

/// One re-entrant unit of synthesis work. Immutable after construction;
/// run() may be called any number of times and from any thread -- each call
/// is a fresh pipeline pass, deterministic in (benchmark, config).
class SynthesisJob {
 public:
  /// Full pipeline (stages 1-4: RL, PAC, barrier, validation).
  explicit SynthesisJob(Benchmark benchmark, PipelineConfig config = {});
  /// Stages 2-4 with an external control law standing in for the trained
  /// DNN (tests and ablations).
  SynthesisJob(Benchmark benchmark, ControlLaw law, PipelineConfig config = {});

  const Benchmark& benchmark() const { return benchmark_; }
  const PipelineConfig& config() const { return config_; }
  bool from_law() const { return from_law_; }

  /// The run's configuration identity: the value the ledger records as
  /// config_key, and the upstream key of the stage-cache chain. Two jobs
  /// with equal keys produce bitwise-identical results, which is what the
  /// serving layer's dedupe map relies on.
  std::uint64_t config_key() const;

  SynthesisResult run(const JobContext& ctx = {}) const;

 private:
  Benchmark benchmark_;
  PipelineConfig config_;
  ControlLaw law_;
  bool from_law_ = false;
};

}  // namespace scs
