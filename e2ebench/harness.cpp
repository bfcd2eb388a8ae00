// scs_e2e: end-to-end synthesis benchmark harness.
//
// Runs one workload through the public synthesis API and writes every raw
// observation (per-system wall times, stage seconds, result digests,
// independent-check outcomes, and, for a traced run, the harness spans, the
// program's own spans and counters, and a PAC replay) as one JSON document.
// Statistics, correctness gates and reporting live in run.py; this file only
// measures.
//
//   scs_e2e --workload c1_cli_fast --seed 1 --trace 0 --out r.json
//   scs_e2e --workload family64 --seed 1 --setup-only --out s.json
//
// Workloads (see README.md for the rationale of each):
//   c1_cli_fast      synthesize() on C1 at the synthesize_cli --fast budget
//   c9_table2_smoke  synthesize() on C9, 30 DDPG episodes at full length
//   family64         64 generated systems, one SynthesisJob per pool task,
//                    independent_check on every certificate
//
// A process makes one untraced pass over the workload's fixed input set;
// run.py repeats processes to fill a run, so that what differs from one
// process to the next (placement, memory layout) is sampled too. A traced
// run (--trace 1) adds one traced pass after the untraced one: stage 1 is
// driven through ControlEnv / DdpgAgent and stages 2-4 through
// synthesize_from_law (or a law-backed SynthesisJob), under harness spans,
// so each layer's time can be attributed without adding spans to the
// library.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "barrier/independent_check.hpp"
#include "core/job.hpp"
#include "core/pipeline.hpp"
#include "math/simd.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/minimax_fit.hpp"
#include "poly/basis.hpp"
#include "rl/ddpg.hpp"
#include "rl/env.hpp"
#include "systems/family_gen.hpp"
#include "util/hash.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace scs;

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::uint64_t pipeline_seed = 2024;
  std::uint64_t family_seed = 2024;
  bool trace = false;
  bool setup_only = false;
  std::string out;
  std::string trace_file;
  std::int64_t spawn_ns = 0;
};

/// One workload's fixed input set: the systems, their pipeline config, and
/// the independent-check settings. Built once per process (set-up).
struct Workload {
  std::vector<Benchmark> systems;
  PipelineConfig config;
  IndependentCheckConfig check;
  bool fan_out = false;  // one system per pool task (family) vs one caller
  /// Submission order of the systems (a permutation drawn from --seed).
  std::vector<std::size_t> order;
};

bool build_workload(const Args& a, Workload& w) {
  PipelineConfig& cfg = w.config;
  // Store off: a stray SCS_CACHE_DIR must not turn a cold run into a warm hit.
  cfg.store.mode = StoreConfig::Mode::kOff;
  w.check.mc_samples = 1500;  // the checker budget of `fuzz_cli --fast`
  w.check.grid_budget = 1024;
  if (a.workload == "c1_cli_fast") {
    w.systems.push_back(make_benchmark(BenchmarkId::kC1));
    cfg.seed = a.pipeline_seed;
    cfg.fast_mode = true;
    cfg.pac_fit.max_samples = 50000;
  } else if (a.workload == "c9_table2_smoke") {
    w.systems.push_back(make_benchmark(BenchmarkId::kC9));
    cfg.seed = a.pipeline_seed;
    cfg.rl_episodes = 30;
    cfg.pac_fit.max_samples = 10000;
  } else if (a.workload == "family64") {
    FamilyConfig family;
    family.seed = a.family_seed;
    family.state_dims = {2, 3};
    family.rl_episodes = 5;
    for (GeneratedSystem& g : generate_family(family, 64))
      w.systems.push_back(std::move(g.benchmark));
    cfg.seed = a.family_seed;  // as fuzz_cli: the family seed seeds the pipeline
    cfg.fast_mode = true;
    w.fan_out = true;
  } else {
    return false;
  }
  // The run seed orders the batch (Fisher-Yates). Every system's result is
  // independent of the order; the pool's packing of slow systems is not.
  w.order.resize(w.systems.size());
  for (std::size_t i = 0; i < w.order.size(); ++i) w.order[i] = i;
  Rng rng(a.seed);
  for (std::size_t i = w.order.size(); i > 1; --i)
    std::swap(w.order[i - 1], w.order[rng.index(i)]);
  return true;
}

/// Identity of a synthesis outcome: verdict, failure stage, controller and
/// barrier at 17 significant digits, K, e, eps, d_p and d_B, hashed.
std::string result_digest(const SynthesisResult& r) {
  std::ostringstream os;
  os.precision(17);
  os << r.verdict << '|' << r.failure_stage << '|';
  for (const Polynomial& p : r.controller) os << p.to_string(17) << ';';
  os << '|' << r.barrier.barrier.to_string(17) << '|' << r.pac.model.samples
     << '|' << r.pac.model.error << '|' << r.pac.model.eps << '|'
     << r.pac.model.degree << '|' << r.barrier.degree;
  const std::string s = os.str();
  Fnv1a h;
  h.update(s.data(), s.size());
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return hex;
}

/// Stage-1 telemetry of a harness-driven (traced) RL run; train and
/// evaluate times are the bench.rl.* spans.
struct Stage1 {
  double seconds = 0.0;  // whole stage: construction, train, evaluate, law
  std::uint64_t env_steps = 0;
  std::uint64_t updates = 0;
};

struct SystemRecord {
  std::string name;
  double wall_s = 0.0;  // call -> returned SynthesisResult
  SynthesisResult result;
  std::string digest;
  bool checked = false;
  bool accepted = false;
  Stage1 stage1;   // traced pass only
  ControlLaw law;  // traced pass only: the harness-trained DNN law
};

/// Re-check a certificate with the independent checker (every result whose
/// barrier stage produced one). A VERIFIED result it rejects is a soundness
/// violation, which run.py counts as a failed operation.
void independent_recheck(const Benchmark& b, const Workload& w,
                         SystemRecord& rec) {
  const SynthesisResult& r = rec.result;
  if (!r.barrier.success) return;
  TraceSpan span("bench.check");
  const IndependentCheckReport chk = independent_check(
      b.ccds, r.controller, r.barrier, w.config.barrier.rho, w.check);
  rec.checked = true;
  rec.accepted = chk.accepted;
}

/// Stage 1 through its public calls, with the same config normalization
/// synthesize() applies (benchmark RL budget and network, then fast-mode
/// shrinkage), so stages 2-4 run on the identical control law.
ControlLaw run_stage1(const Benchmark& b, PipelineConfig cfg, Stage1& s1) {
  Stopwatch total;
  int episodes = cfg.rl_episodes >= 0 ? cfg.rl_episodes : b.rl.episodes;
  cfg.env.dt = b.rl.dt;
  cfg.env.max_steps = b.rl.steps_per_episode;
  cfg.ddpg.actor_hidden = b.hidden_layers;
  if (cfg.fast_mode) {
    episodes = std::min(episodes, 20);
    cfg.ddpg.warmup_steps = std::min<std::size_t>(cfg.ddpg.warmup_steps, 200);
    cfg.env.max_steps = std::min<std::size_t>(cfg.env.max_steps, 80);
    cfg.eval_episodes = std::min(cfg.eval_episodes, 5);
  }
  const Ccds& sys = b.ccds;
  Rng rng(cfg.seed);
  ControlEnv env(sys, cfg.env);
  DdpgAgent agent(sys.num_states, sys.num_controls, cfg.ddpg, rng);
  TrainResult train;
  {
    TraceSpan span("bench.rl.train");
    train = agent.train(env, episodes, rng);
  }
  {
    TraceSpan span("bench.rl.evaluate");
    agent.evaluate(env, cfg.eval_episodes, rng);
  }
  for (const EpisodeStats& e : train.episodes) s1.env_steps += e.steps;
  // DdpgAgent::train updates once per step from global step `warmup_steps`
  // (counted from 1) on.
  const std::uint64_t warmup = cfg.ddpg.warmup_steps;
  if (s1.env_steps + 1 > warmup)
    s1.updates = (s1.env_steps + 1 - warmup) *
                 static_cast<std::uint64_t>(cfg.ddpg.updates_per_step);
  ControlLaw law = agent.control_law(sys.control_bound);
  s1.seconds = total.seconds();
  return law;
}

/// One pass over the workload's systems. Untraced: synthesize() (single
/// caller) or SynthesisJob::run (one pool task per system). Traced: stage 1
/// by the harness, stages 2-4 by synthesize_from_law / a law-backed job.
std::vector<SystemRecord> run_pass(const Workload& w, bool traced) {
  std::vector<SystemRecord> recs(w.systems.size());
  const auto one = [&](std::size_t t) {
    const std::size_t i = w.order[t];
    const Benchmark& b = w.systems[i];
    SystemRecord& rec = recs[i];
    rec.name = b.name;
    Stopwatch sw;
    if (!traced) {
      rec.result = w.fan_out ? SynthesisJob(b, w.config).run()
                             : synthesize(b, w.config);
    } else {
      TraceSpan span("bench.system");
      rec.law = run_stage1(b, w.config, rec.stage1);
      rec.result = w.fan_out ? SynthesisJob(b, rec.law, w.config).run()
                             : synthesize_from_law(b, rec.law, w.config);
    }
    rec.wall_s = sw.seconds();
    rec.digest = result_digest(rec.result);
    independent_recheck(b, w, rec);
  };
  if (w.fan_out) {
    parallel_for(recs.size(), 1, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) one(i);
    });
  } else {
    for (std::size_t i = 0; i < recs.size(); ++i) one(i);
  }
  return recs;
}

struct Replay {
  double scenario_s = 0.0;
  double design_s = 0.0;
  double minimax_s = 0.0;
  std::size_t rows = 0;
  std::size_t exact = 0;  // rows whose replayed fit error matched bit for bit
};

/// Replay every recorded PAC attempt (d, K_used) of one system through the
/// public calls, timing the three parts Algorithm 1 fuses in one span:
/// scenario draw + law evaluation, design-matrix rows, and the minimax LP.
/// It follows pac_approximate's stream protocol (stages 2-4 seed
/// `seed + 1000`, one forked substream per 256-sample chunk, unit-box
/// coordinates), so while that protocol holds the replayed scenario program
/// is the recorded one and the refit reproduces its error exactly; `exact`
/// counts the rows where it did. Channel 0 only (the channel
/// SynthesisResult::pac records).
void replay_pac(const Benchmark& b, const PipelineConfig& cfg,
                const SystemRecord& rec, Replay& out) {
  const SynthesisResult& r = rec.result;
  const Ccds& sys = b.ccds;
  const double bound = sys.control_bound;
  const std::size_t n = sys.num_states;
  const Box& box = sys.domain.sampling_box();
  Vec s_inv(n, 1.0);
  for (std::size_t j = 0; j < n; ++j)
    s_inv[j] =
        1.0 / std::max({std::fabs(box.lo[j]), std::fabs(box.hi[j]), 1e-9});
  Rng rng(cfg.seed + 1000);
  constexpr std::size_t kChunk = 256;
  for (const PacTraceRow& row : r.pac.trace) {
    // The scenario batch drawn before screening (samples_used counts what
    // survived it).
    const std::size_t k =
        static_cast<std::size_t>(row.samples_used + row.dropped_samples);
    if (k == 0) continue;
    const auto basis = monomials_up_to(n, row.degree);
    std::vector<Rng> streams = rng.fork_streams((k + kChunk - 1) / kChunk);
    // Degraded rows were not solved as an LP; rows with dropped non-finite
    // samples fitted a screened matrix. Neither replays as recorded.
    if (row.degraded || row.dropped_samples > 0) continue;
    std::vector<Vec> pts(k);
    Vec targets(k);
    Stopwatch sw;
    parallel_for(k, kChunk, [&](std::size_t begin, std::size_t end) {
      Rng& cr = streams[begin / kChunk];
      for (std::size_t i = begin; i < end; ++i) {
        Vec x = sys.domain.sample(cr);
        targets[i] = rec.law(x)[0] / bound;
        for (std::size_t j = 0; j < n; ++j) x[j] *= s_inv[j];
        pts[i] = std::move(x);
      }
    });
    out.scenario_s += sw.seconds();
    sw.reset();
    Mat design(k, basis.size());
    parallel_for(k, kChunk, [&](std::size_t begin, std::size_t end) {
      const std::vector<Vec> chunk(
          pts.begin() + static_cast<std::ptrdiff_t>(begin),
          pts.begin() + static_cast<std::ptrdiff_t>(end));
      evaluate_basis_rows(basis, chunk, design, begin);
    });
    out.design_s += sw.seconds();
    sw.reset();
    const MinimaxFitResult fit = minimax_fit(design, targets);
    out.minimax_s += sw.seconds();
    ++out.rows;
    if (fit.error == row.error) ++out.exact;
  }
}

void write_system(JsonWriter& j, const SystemRecord& rec) {
  const SynthesisResult& r = rec.result;
  j.begin_object();
  j.key("name").value(rec.name);
  j.key("wall_s").value(rec.wall_s, 17);
  j.key("verdict").value(r.verdict);
  j.key("failure_stage").value(r.failure_stage);
  j.key("digest").value(rec.digest);
  j.key("rl_s").value(rec.stage1.seconds > 0.0 ? rec.stage1.seconds
                                               : r.rl_seconds, 17);
  j.key("pac_s").value(r.pac_seconds, 17);
  j.key("barrier_s").value(r.barrier_seconds, 17);
  j.key("validation_s").value(r.validation_seconds, 17);
  j.key("pac_K").value(static_cast<std::uint64_t>(r.pac.model.samples));
  j.key("pac_e").value(r.pac.model.error, 17);
  j.key("pac_eps").value(r.pac.model.eps, 17);
  j.key("d_p").value(r.pac.model.degree);
  j.key("d_B").value(r.barrier.degree);
  j.key("sos_programs").value(r.barrier.attempts);
  j.key("barrier_success").value(r.barrier.success);
  j.key("checked").value(rec.checked);
  j.key("check_accepted").value(rec.accepted);
  std::uint64_t pac_samples = 0;
  double attempt_s = 0.0;
  for (const PacTraceRow& row : r.pac.trace) {
    pac_samples += row.samples_used;
    attempt_s += row.seconds;
  }
  j.key("pac_attempts").value(static_cast<std::uint64_t>(r.pac.trace.size()));
  j.key("pac_samples").value(pac_samples);
  j.key("pac_attempt_s").value(attempt_s, 17);
  j.key("rl_env_steps").value(rec.stage1.env_steps);
  j.key("rl_updates").value(rec.stage1.updates);
  j.end_object();
}

void write_pass(JsonWriter& j, const std::vector<SystemRecord>& recs,
                double wall_s, double cpu_s) {
  j.begin_object();
  j.key("wall_s").value(wall_s, 17);
  j.key("cpu_s").value(cpu_s, 17);
  j.key("systems").begin_array();
  for (const SystemRecord& rec : recs) write_system(j, rec);
  j.end_array();
  j.end_object();
}

/// The spans run.py aggregates: harness spans, pipeline stages and SDP
/// solves (instants and per-run envelopes are dropped).
bool exported_span(const std::string& name) {
  return name.rfind("bench.", 0) == 0 || name.rfind("stage.", 0) == 0 ||
         name == "sdp.solve";
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--setup-only") {
      a.setup_only = true;
    } else if (!has_value) {
      return false;
    } else if (arg == "--workload") {
      a.workload = argv[++i];
    } else if (arg == "--seed") {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--pipeline-seed") {
      a.pipeline_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--family-seed") {
      a.family_seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      a.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out") {
      a.out = argv[++i];
    } else if (arg == "--trace-file") {
      a.trace_file = argv[++i];
    } else if (arg == "--spawn-ns") {
      a.spawn_ns = std::strtoll(argv[++i], nullptr, 10);
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = monotonic_ns();
  // Timed runs ignore the observability and cache environment knobs: they
  // would arm tracing, metrics, ledger appends or a warm artifact store.
  for (const char* var : {"SCS_TRACE", "SCS_METRICS", "SCS_LEDGER",
                          "SCS_CACHE_DIR", "SCS_CACHE", "SCS_THREADS"})
    unsetenv(var);

  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: scs_e2e --workload <name> --seed <n> --out <file>\n"
                 "       [--pipeline-seed <n>] [--family-seed <n>]\n"
                 "       [--trace 0|1] [--trace-file <file>] [--spawn-ns <ns>] "
                 "[--setup-only]\n";
    return 2;
  }

  // ---- Set-up: pool start at width nproc, then the workload's inputs.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  set_parallel_threads(nproc);
  parallel_for(nproc, 1, [](std::size_t, std::size_t) {});  // start workers
  Workload w;
  if (!build_workload(args, w)) {
    std::cerr << "scs_e2e: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::int64_t ready_ns = monotonic_ns();
  const std::int64_t start_ns = args.spawn_ns > 0 ? args.spawn_ns : main_ns;

  JsonWriter j;
  j.begin_object();
  j.key("workload").value(args.workload);
  j.key("setup_s").value(static_cast<double>(ready_ns - start_ns) * 1e-9, 17);
  j.key("provenance").begin_object();
  j.key("nproc").value(static_cast<std::int64_t>(nproc));
  j.key("pool_width").value(static_cast<std::int64_t>(parallel_threads()));
  j.key("simd").value(simd::active_kernel_name());
  j.key("build_type").value(SCS_E2E_BUILD_TYPE);
#ifdef __OPTIMIZE__
  j.key("optimized").value(true);
#else
  j.key("optimized").value(false);
#endif
  j.key("seed").value(args.seed);
  j.key("pipeline_seed").value(w.config.seed);
  j.key("family_seed").value(args.family_seed);
  j.key("systems").value(static_cast<std::uint64_t>(w.systems.size()));
  j.end_object();

  if (!args.setup_only) {
    // ---- One untraced pass over the fixed input set.
    {
      const double cpu0 = cpu_seconds();
      Stopwatch sw;
      const std::vector<SystemRecord> recs = run_pass(w, false);
      const double wall = sw.seconds();
      j.key("pass");
      write_pass(j, recs, wall, cpu_seconds() - cpu0);
    }
    j.key("peak_rss_mb").value(peak_rss_mb(), 17);

    if (args.trace) {
      // ---- Traced pass: trace + metrics armed, harness-driven stage 1.
      MetricsRegistry::instance().reset_for_tests();
      set_metrics_enabled(true);
      trace_clear();
      trace_start(args.trace_file);
      const double cpu0 = cpu_seconds();
      Stopwatch sw;
      const std::vector<SystemRecord> recs = run_pass(w, true);
      const double traced_wall = sw.seconds();
      trace_stop();
      set_metrics_enabled(false);
      j.key("traced").begin_object();
      j.key("pass");
      write_pass(j, recs, traced_wall, cpu_seconds() - cpu0);

      const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
      j.key("counters").begin_object();
      for (const auto& c : snap.counters) j.key(c.name).value(c.value);
      j.end_object();
      j.key("gauges_max").begin_object();
      for (const auto& g : snap.gauges) j.key(g.name).value(g.max);
      j.end_object();

      j.key("spans").begin_array();
      for (const TraceEvent& e : trace_snapshot()) {
        if (e.phase != 'X' || !exported_span(e.name)) continue;
        j.begin_array();
        j.value(e.name).value(static_cast<std::uint64_t>(e.tid));
        j.value(e.ts_ns).value(e.dur_ns);
        j.end_array();
      }
      j.end_array();
      j.key("trace_dropped").value(trace_dropped());
      if (!args.trace_file.empty()) trace_write(args.trace_file);

      // PAC layer split, replayed after the trace closed (it re-runs the
      // simplex, so it must not feed the counters above).
      Replay replay;
      for (std::size_t i = 0; i < recs.size(); ++i)
        replay_pac(w.systems[i], w.config, recs[i], replay);
      j.key("replay").begin_object();
      j.key("rows").value(static_cast<std::uint64_t>(replay.rows));
      j.key("scenario_s").value(replay.scenario_s, 17);
      j.key("design_s").value(replay.design_s, 17);
      j.key("minimax_s").value(replay.minimax_s, 17);
      j.key("exact").value(static_cast<std::uint64_t>(replay.exact));
      j.end_object();
      j.end_object();
    }
  }
  j.end_object();

  std::ofstream out(args.out, std::ios::trunc);
  out << j.str() << '\n';
  if (!out) {
    std::cerr << "scs_e2e: cannot write " << args.out << "\n";
    return 1;
  }
  return 0;
}
