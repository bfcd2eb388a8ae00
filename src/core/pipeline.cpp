#include "core/pipeline.hpp"

#include <algorithm>
#include <optional>

#include "core/pipeline_detail.hpp"
#include "core/report.hpp"
#include "obs/ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace scs {

namespace {

/// Arm tracing / metrics for one run per PipelineConfig::obs, and flush the
/// requested files when the run finishes (destructor). Env-armed
/// observability (SCS_TRACE / SCS_METRICS) flushes at process exit instead
/// and is not touched here.
class ObsRunScope {
 public:
  explicit ObsRunScope(const ObsConfig& obs) : obs_(obs) {
    if (!obs_.trace_path.empty()) trace_start(obs_.trace_path);
    if (!obs_.metrics_path.empty()) set_metrics_enabled(true);
  }
  ~ObsRunScope() {
    if (!obs_.trace_path.empty()) trace_write(obs_.trace_path);
    if (!obs_.metrics_path.empty()) metrics_write(obs_.metrics_path);
  }
  ObsRunScope(const ObsRunScope&) = delete;
  ObsRunScope& operator=(const ObsRunScope&) = delete;

 private:
  ObsConfig obs_;
};

/// Registry snapshot for SynthesisResult (empty when metrics are off).
std::string metrics_snapshot_or_empty() {
  if (!metrics_enabled()) return {};
  return MetricsRegistry::instance().json();
}

/// Append the run's ledger record when a ledger is armed (config or
/// SCS_LEDGER). Observation only, after every numeric field is final; an
/// I/O failure is logged and never fails the run.
void append_ledger(const SynthesisResult& result, std::uint64_t config_key,
                   std::uint64_t seed, const std::string& source,
                   const ObsConfig& obs) {
  const std::string path = resolve_ledger_path(obs.ledger_path);
  if (path.empty()) return;
  if (!ledger_append(path, ledger_record(result, config_key, seed, source)))
    log_info("pipeline[", result.benchmark, "]: ledger append to '", path,
             "' failed");
}

/// Apply fast-mode shrinkage for unit tests.
void apply_fast_mode(PipelineConfig& cfg, int& episodes, PacSettings& pac) {
  episodes = std::min(episodes, 20);
  cfg.ddpg.warmup_steps = std::min<std::size_t>(cfg.ddpg.warmup_steps, 200);
  cfg.env.max_steps = std::min<std::size_t>(cfg.env.max_steps, 80);
  if (cfg.pac_fit.max_samples == 0) cfg.pac_fit.max_samples = 2000;
  cfg.eval_episodes = std::min(cfg.eval_episodes, 5);
  cfg.validation.samples_per_set =
      std::min<std::size_t>(cfg.validation.samples_per_set, 500);
  cfg.validation.simulation_rollouts =
      std::min(cfg.validation.simulation_rollouts, 5);
  cfg.validation.simulation_steps =
      std::min<std::size_t>(cfg.validation.simulation_steps, 500);
  pac.max_degree = std::min(pac.max_degree, 3);
}

/// Benchmark-driven config normalization shared by the run path and the
/// config-key computation (the two must agree, or the ledger identity of a
/// run would drift from the key its artifacts are cached under). Returns
/// the episode budget.
int normalize_config(const Benchmark& benchmark, PipelineConfig& cfg,
                     PacSettings& pac_settings) {
  int episodes =
      (cfg.rl_episodes >= 0) ? cfg.rl_episodes : benchmark.rl.episodes;
  cfg.env.dt = benchmark.rl.dt;
  cfg.env.max_steps = benchmark.rl.steps_per_episode;
  cfg.ddpg.actor_hidden = benchmark.hidden_layers;
  if (cfg.fast_mode) apply_fast_mode(cfg, episodes, pac_settings);
  return episodes;
}

/// Stage-boundary stop gate: when the job control has a stop pending, mark
/// `result` as preempted at `stage` and return true. The CANCELLED /
/// DEADLINE verdict itself is stamped once, at the end of the run.
bool preempted(const JobControl* control, const char* stage,
               SynthesisResult& result) {
  if (!stop_requested(control)) return false;
  result.success = false;
  result.failure_stage = stage;
  result.failure_message = std::string("job preempted at the ") + stage +
                           " stage (cancelled or deadline expired)";
  return true;
}

/// Final verdict: VERIFIED on success; the stop reason (CANCELLED /
/// DEADLINE) when the job was asked to stop; UNVERIFIED otherwise. A
/// stopped run is inconclusive by definition, so the stop reason wins over
/// whatever partial failure the preemption left behind.
void stamp_verdict(SynthesisResult& result, const JobControl* control) {
  if (result.success) {
    result.verdict = "VERIFIED";
    return;
  }
  if (control != nullptr) {
    const JobControl::StopReason reason = control->stop_reason();
    if (reason != JobControl::StopReason::kNone) {
      result.verdict = to_string(reason);
      return;
    }
  }
  result.verdict = "UNVERIFIED";
}

SynthesisResult run_stages_2_to_4_impl(const Benchmark& benchmark,
                                       const ControlLaw& law,
                                       PipelineConfig config,
                                       SynthesisResult result,
                                       StageCache* cache,
                                       std::uint64_t upstream_key,
                                       const JobControl* control) {
  Rng rng(config.seed + 1000);
  const Ccds& sys = benchmark.ccds;
  PacSettings pac_settings = benchmark.pac;
  if (config.fast_mode) {
    int dummy_episodes = 0;
    apply_fast_mode(config, dummy_episodes, pac_settings);
  }
  // Thread job-level preemption into the solver layers. Never hashed:
  // the stage keys computed below are identical with or without a control.
  config.pac_fit.control = control;
  const bool cached = cache != nullptr && cache->enabled();
  if (preempted(control, "pac", result)) return result;

  // ---- Stage 2: PAC polynomial approximation (Algorithm 1).
  // The approximation target is the *normalized* DNN output in [-1, 1]^m --
  // exactly what the paper's tanh-output actors emit -- so the tabulated
  // errors e are comparable to Table 1/2 regardless of actuator scale. The
  // physical controller is bound * p(x).
  TraceSpan pac_span("stage.pac");
  Stopwatch pac_sw;
  const double bound = sys.control_bound;
  std::uint64_t pac_key = 0;
  bool pac_warm = false;
  if (cached) {
    pac_key = pac_stage_key(upstream_key, config.seed, pac_settings,
                            config.pac_fit, bound, sys.num_controls);
    if (auto hit = cache->load_pac(pac_key, result.cache.pac)) {
      result.pac = std::move(hit->pac);
      result.controller = std::move(hit->controller);
      result.pac_degraded = hit->degraded;
      pac_warm = true;
      log_info("pipeline[", benchmark.name, "]: PAC stage from cache");
    }
  }
  if (!pac_warm) {
    const auto vec_fn = [&law, bound](const Vec& x) {
      Vec u = law(x);
      u /= bound;
      return u;
    };
    PacVectorResult pac_vec = pac_approximate_vector(
        vec_fn, sys.num_controls, sys.domain, pac_settings, rng,
        config.pac_fit);
    result.pac = pac_vec.per_channel.front();
    for (const auto& m : pac_vec.models) {
      result.controller.push_back(m.poly * bound);
      result.pac_degraded = result.pac_degraded || !m.pac_valid;
    }
    if (!pac_vec.success) {
      // Algorithm 1 failed to reach tau; proceed with the best model anyway
      // (verification decides), but record the stage as degraded.
      log_info(
          "pipeline: PAC stage did not reach tau; continuing with best fit");
    }
    // A preempted PAC result is partial; caching it would poison warm runs.
    if (cached && !stop_requested(control))
      cache->store_pac(pac_key, benchmark.name,
                       {result.pac, result.controller, result.pac_degraded},
                       result.cache.pac);
  }
  result.pac_seconds = pac_sw.seconds();
  pac_span.close();
  if (preempted(control, "pac", result)) return result;
  if (result.pac_degraded) {
    log_info("pipeline[", benchmark.name,
             "]: PAC guarantee withdrawn (least-squares fallback in use); "
             "any verdict rests on verification + validation alone");
  }

  // ---- Stage 3: barrier-certificate generation, one ladder over every
  // candidate. The primary candidate is the PAC-selected surrogate; behind
  // it come the other degrees of the Algorithm-1 sweep (lower-degree
  // surrogates both shrink the SOS program and often smooth the closed
  // loop -- the "broader possibilities for BC selection" of Section 5), and
  // last the paper's alternating (BMI) schedule on the primary, which
  // searches over lambda as well.
  TraceSpan barrier_span("stage.barrier");
  Stopwatch barrier_sw;
  BarrierConfig barrier_cfg = config.barrier;
  if (barrier_cfg.degree_schedule.empty())
    barrier_cfg.degree_schedule = benchmark.barrier_degrees;
  if (std::find(barrier_cfg.strategies.begin(), barrier_cfg.strategies.end(),
                LambdaStrategy::kAlternating) == barrier_cfg.strategies.end())
    barrier_cfg.strategies.push_back(LambdaStrategy::kAlternating);
  barrier_cfg.seed = config.seed + 2000;
  barrier_cfg.sdp.control = control;  // preempts mid-interior-point
  std::uint64_t barrier_key = 0;
  bool barrier_warm = false;
  if (cached) {
    barrier_key = barrier_stage_key(pac_key, barrier_cfg);
    if (auto hit = cache->load_barrier(barrier_key, result.cache.barrier)) {
      // The ladder may have certified a lower-degree surrogate, so the
      // cached entry carries the accepted controller and PAC model too.
      result.barrier = std::move(hit->barrier);
      result.controller = std::move(hit->controller);
      result.pac.model = std::move(hit->pac_model);
      barrier_warm = true;
      log_info("pipeline[", benchmark.name, "]: barrier stage from cache");
    }
  }
  if (!barrier_warm) {
    std::vector<std::vector<Polynomial>> candidates = {result.controller};
    std::vector<PacModel> models = {result.pac.model};
    if (sys.num_controls == 1) {
      for (auto it = result.pac.per_degree.rbegin();
           it != result.pac.per_degree.rend(); ++it) {
        if (it->degree == result.pac.model.degree) continue;  // the primary
        candidates.push_back({it->poly * bound});
        models.push_back(*it);
      }
    }
    result.barrier = synthesize_barrier(sys, candidates, barrier_cfg);
    if (result.barrier.winner_candidate > 0) {
      const auto k = static_cast<std::size_t>(result.barrier.winner_candidate);
      log_info("pipeline[", benchmark.name, "]: degree-", models[k].degree,
               " surrogate verified after the primary failed");
      result.controller = std::move(candidates[k]);
      result.pac.model = std::move(models[k]);
    }
    // A preempted barrier failure is not a real infeasibility; do not cache
    // it (a re-run without the stop could still find a certificate).
    if (cached && !stop_requested(control))
      cache->store_barrier(
          barrier_key, benchmark.name,
          {result.barrier, result.controller, result.pac.model},
          result.cache.barrier);
  }
  result.barrier_seconds = barrier_sw.seconds();
  barrier_span.close();
  if (preempted(control, "barrier", result)) return result;
  if (!result.barrier.success) {
    result.failure_stage = "barrier";
    result.failure_message = "barrier synthesis failed in all " +
                             std::to_string(result.barrier.arms_launched) +
                             " arms; " + result.barrier.failure_reason;
    return result;
  }

  // ---- Stage 4: independent validation.
  TraceSpan validation_span("stage.validation");
  Stopwatch validation_sw;
  std::uint64_t validation_key = 0;
  bool validation_warm = false;
  if (cached) {
    validation_key =
        validation_stage_key(barrier_key, config.seed, config.validation);
    if (auto hit =
            cache->load_validation(validation_key, result.cache.validation)) {
      result.validation = std::move(hit->report);
      validation_warm = true;
      log_info("pipeline[", benchmark.name, "]: validation stage from cache");
    }
  }
  if (!validation_warm) {
    Rng vrng(config.seed + 3000);
    result.validation = validate_barrier(sys, result.controller,
                                         result.barrier.barrier,
                                         config.validation, vrng);
    if (cached && !stop_requested(control))
      cache->store_validation(validation_key, benchmark.name,
                              {result.validation}, result.cache.validation);
  }
  result.validation_seconds = validation_sw.seconds();
  validation_span.close();
  if (preempted(control, "validation", result)) return result;
  if (!result.validation.passed) {
    result.failure_stage = "validation";
    result.failure_message = "independent numeric validation rejected the "
                             "certificate";
    return result;
  }
  result.success = true;
  return result;
}

/// Never-crash wrapper: any exception escaping a stage (precondition
/// violations included) is converted into a structured UNVERIFIED result.
/// A synthesis pipeline that aborts on one bad instance is useless for
/// batch benchmarking and for the fault-injection suite.
SynthesisResult run_stages_2_to_4(const Benchmark& benchmark,
                                  const ControlLaw& law,
                                  PipelineConfig config,
                                  SynthesisResult result,
                                  StageCache* cache = nullptr,
                                  std::uint64_t upstream_key = 0,
                                  const JobControl* control = nullptr) {
  try {
    // Pass a copy so a throwing stage leaves the caller-visible fields
    // (benchmark name, RL telemetry) intact for the failure report.
    result = run_stages_2_to_4_impl(benchmark, law, std::move(config), result,
                                    cache, upstream_key, control);
  } catch (const std::exception& e) {
    log_info("pipeline[", benchmark.name, "]: stage threw (", e.what(),
             "); reporting UNVERIFIED");
    result.success = false;
    if (result.failure_stage.empty()) result.failure_stage = "exception";
    result.failure_message = e.what();
  }
  stamp_verdict(result, control);
  return result;
}

}  // namespace

namespace detail {

std::uint64_t job_config_key(const Benchmark& benchmark,
                             const PipelineConfig& config, bool from_law) {
  if (from_law) {
    // No RL stage; the identity key folds the benchmark content + seed.
    Fnv1a identity;
    hash_append(identity, benchmark);
    hash_append(identity, config.seed);
    return identity.digest();
  }
  PipelineConfig cfg = config;
  PacSettings pac_settings = benchmark.pac;
  const int episodes = normalize_config(benchmark, cfg, pac_settings);
  return rl_stage_key(benchmark, cfg.seed, cfg.ddpg, cfg.env, episodes,
                      cfg.eval_episodes);
}

SynthesisResult run_synthesis_job(const Benchmark& benchmark,
                                  const ControlLaw* external_law,
                                  const PipelineConfig& config,
                                  const JobContext& ctx) {
  ObsRunScope obs_scope(config.obs);
  LogTagScope tag_scope(benchmark.name);
  // Serve requests correlate the whole run's span tree (this thread and its
  // pool fan-out) under the request id; guarded so the non-traced path
  // stays at one relaxed load.
  std::optional<TraceIdScope> id_scope;
  if (!ctx.request_id.empty() && trace_enabled())
    id_scope.emplace(ctx.request_id);
  TraceSpan run_span("synthesize:" + benchmark.name);
  Stopwatch total_sw;
  SynthesisResult result;
  result.benchmark = benchmark.name;
  result.threads_used = static_cast<int>(parallel_threads());

  // ---- Stages 2-4 only: an external control law stands in for the DNN.
  if (external_law != nullptr) {
    result.dnn_structure = "(external law)";
    const std::uint64_t identity =
        job_config_key(benchmark, config, /*from_law=*/true);
    result = run_stages_2_to_4(benchmark, *external_law, config,
                               std::move(result), ctx.cache, identity,
                               ctx.control);
    result.total_seconds = total_sw.seconds();
    result.metrics_json = metrics_snapshot_or_empty();
    append_ledger(result, identity, config.seed, ctx.source, config.obs);
    return result;
  }

  const Ccds& sys = benchmark.ccds;
  PipelineConfig cfg = config;
  PacSettings pac_settings = benchmark.pac;
  const int episodes = normalize_config(benchmark, cfg, pac_settings);

  // ---- Stage 1: DDPG training of the auxiliary DNN controller, unless the
  // artifact store already holds the trained actor for this exact
  // (benchmark content, config slice, seed, format version) key. The cache
  // handle is either shared (server: one handle across all jobs) or owned
  // by this run.
  std::optional<StageCache> own_cache;
  StageCache* cache = ctx.cache;
  if (cache == nullptr) {
    own_cache.emplace(cfg.store);
    cache = &*own_cache;
  }
  result.cache.enabled = cache->enabled();
  // Computed whether or not the cache is on: the RL stage key doubles as
  // the run's configuration identity (config_key) in the ledger.
  const std::uint64_t rl_key = rl_stage_key(
      benchmark, cfg.seed, cfg.ddpg, cfg.env, episodes, cfg.eval_episodes);

  TraceSpan rl_span("stage.rl");
  Stopwatch rl_sw;
  Rng rng(cfg.seed);
  try {
    if (preempted(ctx.control, "rl", result)) {
      stamp_verdict(result, ctx.control);
    } else {
      ControlLaw law;
      bool rl_warm = false;
      if (cache->enabled()) {
        if (auto hit = cache->load_rl(rl_key, result.cache.rl)) {
          result.dnn_structure = hit->dnn_structure;
          result.rl_eval = hit->eval;
          law = control_law_from_actor(hit->actor, sys.control_bound);
          rl_warm = true;
          result.rl_seconds = rl_sw.seconds();
          log_info("pipeline[", benchmark.name,
                   "]: RL stage from cache (actor ", result.dnn_structure,
                   ", ", result.rl_seconds, "s)");
        }
      }
      if (!rl_warm) {
        ControlEnv env(sys, cfg.env);
        DdpgAgent agent(sys.num_states, sys.num_controls, cfg.ddpg, rng);
        result.dnn_structure = agent.actor().structure_string();
        {
          TraceSpan train_span("rl.train");
          agent.train(env, episodes, rng, ctx.control);
        }
        {
          TraceSpan evaluate_span("rl.evaluate");
          result.rl_eval =
              agent.evaluate(env, cfg.eval_episodes, rng, ctx.control);
        }
        result.rl_seconds = rl_sw.seconds();
        log_info("pipeline[", benchmark.name, "]: RL done in ",
                 result.rl_seconds, "s, eval safety rate ",
                 result.rl_eval.safety_rate);
        law = agent.control_law(sys.control_bound);
        // A cancel that lands mid-training takes effect here: the partially
        // trained actor is never persisted.
        if (cache->enabled() && !stop_requested(ctx.control))
          cache->store_rl(
              rl_key, benchmark.name,
              {agent.actor(), result.dnn_structure, result.rl_eval},
              result.cache.rl);
      }
      rl_span.close();

      // A stop that lands during training is the rl stage's, not pac's.
      if (preempted(ctx.control, "rl", result))
        stamp_verdict(result, ctx.control);
      else
        result = run_stages_2_to_4(benchmark, law, cfg, std::move(result),
                                   cache->enabled() ? cache : nullptr,
                                   rl_key, ctx.control);
    }
  } catch (const std::exception& e) {
    log_info("pipeline[", benchmark.name, "]: RL stage threw (", e.what(),
             "); reporting UNVERIFIED");
    result.success = false;
    result.failure_stage = "rl";
    result.failure_message = e.what();
    stamp_verdict(result, ctx.control);
  }
  result.total_seconds = total_sw.seconds();
  result.metrics_json = metrics_snapshot_or_empty();
  append_ledger(result, rl_key, cfg.seed, ctx.source, cfg.obs);
  return result;
}

}  // namespace detail

SynthesisResult synthesize(const Benchmark& benchmark,
                           const PipelineConfig& config) {
  return detail::run_synthesis_job(benchmark, nullptr, config, JobContext{});
}

SynthesisResult synthesize_from_law(const Benchmark& benchmark,
                                    const ControlLaw& law,
                                    const PipelineConfig& config) {
  JobContext ctx;
  ctx.source = "synthesize_from_law";
  return detail::run_synthesis_job(benchmark, &law, config, ctx);
}

std::vector<SynthesisResult> synthesize_many(
    const std::vector<Benchmark>& benchmarks, const PipelineConfig& config) {
  std::vector<SynthesisResult> results(benchmarks.size());
  // One task per system; each synthesize() seeds its own Rng chain from
  // config.seed, so the fan-out is embarrassingly parallel and the output
  // matches a sequential loop bitwise at any thread count.
  parallel_for(benchmarks.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i)
      results[i] = synthesize(benchmarks[i], config);
  });
  return results;
}

}  // namespace scs
