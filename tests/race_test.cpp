// The barrier ladder: arms run across the work pool under child JobControl
// scopes, the lowest-index feasible arm wins, and the result -- certificate,
// winner, diagnostics, telemetry -- is the serial walk's at every pool
// width, across candidate rungs and the rescue rung too.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "barrier/synthesis.hpp"
#include "obs/metrics.hpp"
#include "poly/polynomial.hpp"
#include "systems/benchmarks.hpp"
#include "systems/ccds.hpp"
#include "util/cancellation.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

namespace scs {
namespace {

/// The 2-D damped oscillator used across the barrier tests: feasible at
/// every degree of the schedules below under every lambda strategy.
Ccds toy2() {
  Ccds sys;
  sys.name = "toy2";
  sys.num_states = 2;
  sys.num_controls = 1;
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {x2, -x1 - x2 + u};
  const Box box = Box::centered(2, 2.0);
  sys.init_set = SemialgebraicSet::ball(Vec{0.0, 0.0}, 0.5);
  sys.domain = SemialgebraicSet::from_box(box);
  sys.unsafe_set = SemialgebraicSet::outside_ball(Vec{0.0, 0.0}, 1.5, box);
  sys.control_bound = 1.0;
  return sys;
}

/// A more lightly damped oscillator on which, under the alternating-BMI
/// strategy at degree 4 and seed 1, arm 0 grinds through every BMI round
/// and fails while arms 1-3 certify on their first solve: the winner is
/// arm 1, and at width > 1 arms 2 and 3 run speculatively beside it.
Ccds lightly_damped() {
  Ccds sys = toy2();
  sys.name = "lightly-damped";
  const auto x1 = Polynomial::variable(3, 0);
  const auto x2 = Polynomial::variable(3, 1);
  const auto u = Polynomial::variable(3, 2);
  sys.open_field = {x2, x1 * -1.0 - x2 * 0.5 + u};
  return sys;
}

BarrierConfig grinder_config() {
  BarrierConfig cfg;
  cfg.degree_schedule = {4};
  cfg.lambda_attempts = 4;
  cfg.seed = 1;
  cfg.strategies = {LambdaStrategy::kAlternating};
  return cfg;
}

/// Positive feedback u = 5 x1 on toy2 makes the origin a saddle whose
/// unstable manifold runs from the initial ball into the unsafe set: no
/// barrier certificate exists for this candidate.
std::vector<Polynomial> saddle_controller() {
  return {Polynomial::variable(2, 0) * 5.0};
}

/// Every BarrierResult field but the wall-clock seconds.
void expect_same_result(const BarrierResult& a, const BarrierResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_TRUE(a.barrier == b.barrier);
  EXPECT_TRUE(a.lambda == b.lambda);
  EXPECT_EQ(a.degree, b.degree);
  EXPECT_EQ(a.strategy_used, b.strategy_used);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.failure_reason, b.failure_reason);
  EXPECT_EQ(a.max_identity_residual, b.max_identity_residual);
  EXPECT_EQ(a.min_gram_eigenvalue, b.min_gram_eigenvalue);
  EXPECT_EQ(a.accepted_via, b.accepted_via);
  EXPECT_EQ(a.winner_arm, b.winner_arm);
  EXPECT_EQ(a.winner_candidate, b.winner_candidate);
  EXPECT_EQ(a.winner_arm_desc, b.winner_arm_desc);
  EXPECT_EQ(a.arms_launched, b.arms_launched);
  EXPECT_EQ(a.arms_cancelled, b.arms_cancelled);
}

/// Runs the ladder at pool widths 1, 2 and 4; restores the default width.
std::vector<BarrierResult> at_widths(
    const Ccds& sys, const std::vector<std::vector<Polynomial>>& candidates,
    const BarrierConfig& cfg) {
  std::vector<BarrierResult> out;
  for (std::size_t width : {1, 2, 4}) {
    set_parallel_threads(width);
    out.push_back(synthesize_barrier(sys, candidates, cfg));
  }
  set_parallel_threads(0);
  return out;
}

/// The serial walk the grid must reproduce: one single-rung ladder per
/// (candidate, strategy) rung -- strategies[0] on each candidate in turn,
/// then each later strategy on candidate 0 -- stopping at the first
/// certificate, with the rung's winner index and telemetry restated in
/// terms of the whole grid.
BarrierResult serial_reference(
    const Ccds& sys, const std::vector<std::vector<Polynomial>>& candidates,
    const BarrierConfig& cfg) {
  std::vector<std::pair<std::size_t, LambdaStrategy>> rungs;
  for (std::size_t c = 0; c < candidates.size(); ++c)
    rungs.emplace_back(c, cfg.strategies.front());
  for (std::size_t k = 1; k < cfg.strategies.size(); ++k)
    rungs.emplace_back(0, cfg.strategies[k]);
  const auto rung_arms = [&](LambdaStrategy s) {
    return static_cast<int>(cfg.degree_schedule.size()) *
           (s == LambdaStrategy::kZero ? 1 : cfg.lambda_attempts);
  };
  int grid_arms = 0;
  for (const auto& rung : rungs) grid_arms += rung_arms(rung.second);

  BarrierResult out;
  int offset = 0;
  int attempts = 0;
  int launched = 0;
  for (const auto& [candidate, strategy] : rungs) {
    BarrierConfig one = cfg;
    one.strategies = {strategy};
    out = synthesize_barrier(sys, candidates[candidate], one);
    attempts += out.attempts;
    launched += out.arms_launched;
    if (out.success) {
      out.winner_arm += offset;
      out.winner_candidate = static_cast<int>(candidate);
      break;
    }
    offset += rung_arms(strategy);
  }
  out.attempts = attempts;
  out.arms_launched = launched;
  out.arms_cancelled = out.success ? grid_arms - out.winner_arm - 1 : 0;
  return out;
}

TEST(BarrierLadder, ResultIsIdenticalAtWidthsOneTwoFour) {
  const std::vector<BarrierResult> runs =
      at_widths(lightly_damped(), {{Polynomial(2)}}, grinder_config());
  ASSERT_TRUE(runs[0].success) << runs[0].failure_reason;
  EXPECT_EQ(runs[0].winner_arm, 1);
  EXPECT_EQ(runs[0].winner_candidate, 0);
  EXPECT_EQ(runs[0].winner_arm_desc, "d_p=0/alternating-BMI/d=4/a=1");
  // The serial walk's telemetry: arms 0..1 ran, arms 2..3 were not needed.
  EXPECT_EQ(runs[0].arms_launched, 2);
  EXPECT_EQ(runs[0].arms_cancelled, 2);
  EXPECT_GT(runs[0].attempts, 2);  // arm 0 ground through its BMI rounds
  EXPECT_TRUE(runs[0].failure_reason.empty());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("width index " + std::to_string(i));
    expect_same_result(runs[0], runs[i]);
  }
}

TEST(BarrierLadder, LowerFeasibleArmBeatsFasterHigherArm) {
  // Arm 0 is the degree-6 rung, arm 1 the much cheaper degree-2 rung; both
  // certify. At width 2 they start together and arm 1 finishes first, but
  // arm 0 still wins, exactly as the serial walk would have it.
  const Ccds sys = toy2();
  BarrierConfig cfg;
  cfg.degree_schedule = {6, 2};
  cfg.lambda_attempts = 1;

  set_parallel_threads(1);
  const BarrierResult serial = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  set_parallel_threads(2);
  set_metrics_enabled(true);
  Counter& launched =
      MetricsRegistry::instance().counter("race.arms_launched");
  const std::uint64_t launched_before = launched.value();
  const BarrierResult wide = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  const std::uint64_t launched_wide = launched.value() - launched_before;
  set_metrics_enabled(false);
  set_parallel_threads(0);

  ASSERT_TRUE(serial.success) << serial.failure_reason;
  EXPECT_EQ(serial.winner_arm, 0);
  EXPECT_EQ(serial.degree, 6);
  EXPECT_EQ(serial.arms_cancelled, 1);
  // Both arms really ran side by side, yet the later-finishing arm 0 won.
  EXPECT_EQ(launched_wide, 2u);
  expect_same_result(serial, wide);
}

TEST(BarrierLadder, WinnerInLaterCandidateRungMatchesSerialWalk) {
  // Rungs: (saddle, constant), (zero, constant), (saddle, alternating).
  // The saddle candidate has no certificate; the second rung's first arm
  // certifies the zero controller, and the rescue rung is not needed.
  const std::vector<std::vector<Polynomial>> candidates = {
      saddle_controller(), {Polynomial(2)}};
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 2;
  cfg.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kAlternating};
  const BarrierResult reference = serial_reference(toy2(), candidates, cfg);
  const std::vector<BarrierResult> runs = at_widths(toy2(), candidates, cfg);

  ASSERT_TRUE(reference.success) << reference.failure_reason;
  EXPECT_EQ(reference.winner_candidate, 1);
  EXPECT_EQ(reference.winner_arm, 2);
  EXPECT_EQ(reference.winner_arm_desc, "d_p=0/constant/d=2/a=0");
  EXPECT_EQ(reference.arms_launched, 3);
  EXPECT_EQ(reference.arms_cancelled, 3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("width index " + std::to_string(i));
    expect_same_result(reference, runs[i]);
  }
}

TEST(BarrierLadder, WinnerInRescueRungMatchesSerialWalk) {
  // lambda = 0 cannot certify a system with an equilibrium in its domain
  // (L_f B vanishes there), so both zero-lambda candidate rungs fail and
  // the alternating rescue on candidate 0 certifies.
  const std::vector<std::vector<Polynomial>> candidates = {
      {Polynomial(2)}, saddle_controller()};
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 2;
  cfg.strategies = {LambdaStrategy::kZero, LambdaStrategy::kAlternating};
  const BarrierResult reference = serial_reference(toy2(), candidates, cfg);
  const std::vector<BarrierResult> runs = at_widths(toy2(), candidates, cfg);

  ASSERT_TRUE(reference.success) << reference.failure_reason;
  EXPECT_EQ(reference.winner_candidate, 0);
  EXPECT_EQ(reference.strategy_used, LambdaStrategy::kAlternating);
  EXPECT_GE(reference.winner_arm, 2);  // past the two one-arm kZero rungs
  EXPECT_GE(reference.attempts, 3);
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("width index " + std::to_string(i));
    expect_same_result(reference, runs[i]);
  }
}

TEST(BarrierLadder, NoFeasibleArmReportsLastArmAtEveryWidth) {
  // Destabilizing feedback on the pendulum: no degree-2 certificate exists
  // for either candidate, so every arm of every rung runs to the end and
  // the report names the last arm of the last rung.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  const std::vector<std::vector<Polynomial>> candidates = {
      {x1 * 10.0 + x2 * 2.0}, {x1 * 10.0 + x1.pow(3) * 2.0}};
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 2;
  cfg.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  const BarrierResult reference =
      serial_reference(bench.ccds, candidates, cfg);
  const std::vector<BarrierResult> runs =
      at_widths(bench.ccds, candidates, cfg);

  EXPECT_FALSE(reference.success);
  EXPECT_EQ(reference.winner_arm, -1);
  EXPECT_EQ(reference.winner_candidate, -1);
  EXPECT_EQ(reference.attempts, 6);  // three rungs of two one-solve arms
  EXPECT_EQ(reference.arms_launched, 6);
  EXPECT_EQ(reference.arms_cancelled, 0);
  const std::string last = "last arm d_p=1/linear/d=2/a=1: ";
  EXPECT_EQ(reference.failure_reason.rfind(last, 0), 0u)
      << reference.failure_reason;
  EXPECT_GT(reference.failure_reason.size(), last.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    SCOPED_TRACE("width index " + std::to_string(i));
    expect_same_result(reference, runs[i]);
  }
}

TEST(BarrierLadder, ParentCancelEndsLadderAsPreempted) {
  const Ccds sys = toy2();
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  cfg.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  JobControl control;
  control.cancel();
  cfg.sdp.control = &control;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.winner_arm, -1);
  EXPECT_EQ(result.winner_candidate, -1);
  EXPECT_EQ(result.arms_launched, 0);
  EXPECT_NE(result.failure_reason.find("preempted"), std::string::npos)
      << result.failure_reason;
}

TEST(BarrierLadder, StrategyListEntersConfigHash) {
  // The strategy list defines the arm grid, so it can change the
  // certificate and is part of the cache key.
  BarrierConfig plain;
  BarrierConfig rescue = plain;
  rescue.strategies.push_back(LambdaStrategy::kAlternating);
  Fnv1a h_plain, h_rescue;
  hash_append(h_plain, plain);
  hash_append(h_rescue, rescue);
  EXPECT_NE(h_plain.digest(), h_rescue.digest());
}

}  // namespace
}  // namespace scs
