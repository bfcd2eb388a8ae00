// The barrier ladder: arms run across the work pool under child JobControl
// scopes, the lowest-index feasible arm wins, and the result -- certificate,
// winner, diagnostics, telemetry -- is the serial walk's at every pool
// width. Replay of the recorded winner reproduces its certificate bitwise.
#include <gtest/gtest.h>

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
  cfg.race.strategies = {LambdaStrategy::kAlternating};
  return cfg;
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
  EXPECT_EQ(a.winner_arm_desc, b.winner_arm_desc);
  EXPECT_EQ(a.arms_launched, b.arms_launched);
  EXPECT_EQ(a.arms_cancelled, b.arms_cancelled);
}

/// Runs the ladder at pool widths 1, 2 and 4; restores the default width.
std::vector<BarrierResult> at_widths(const Ccds& sys,
                                     const std::vector<Polynomial>& ctrl,
                                     const BarrierConfig& cfg) {
  std::vector<BarrierResult> out;
  for (std::size_t width : {1, 2, 4}) {
    set_parallel_threads(width);
    out.push_back(synthesize_barrier(sys, ctrl, cfg));
  }
  set_parallel_threads(0);
  return out;
}

TEST(BarrierLadder, ResultIsIdenticalAtWidthsOneTwoFour) {
  const std::vector<BarrierResult> runs =
      at_widths(lightly_damped(), {Polynomial(2)}, grinder_config());
  ASSERT_TRUE(runs[0].success) << runs[0].failure_reason;
  EXPECT_EQ(runs[0].winner_arm, 1);
  EXPECT_EQ(runs[0].winner_arm_desc, "alternating-BMI/d=4/a=1");
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

TEST(BarrierLadder, NoFeasibleArmReportsLastArmAtEveryWidth) {
  // Destabilizing feedback on the pendulum: no degree-2 certificate
  // exists, so every arm runs to the end.
  const Benchmark bench = make_benchmark(BenchmarkId::kC1);
  const auto x1 = Polynomial::variable(2, 0);
  const auto x2 = Polynomial::variable(2, 1);
  BarrierConfig cfg;
  cfg.degree_schedule = {2};
  cfg.lambda_attempts = 2;
  cfg.race.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  const std::vector<BarrierResult> runs =
      at_widths(bench.ccds, {x1 * 10.0 + x2 * 2.0}, cfg);

  // The last arm alone, pinned: its diagnostics are the ladder's.
  BarrierConfig last = cfg;
  last.race.replay_arm = 3;
  const BarrierResult last_arm =
      synthesize_barrier(bench.ccds, {x1 * 10.0 + x2 * 2.0}, last);

  EXPECT_FALSE(runs[0].success);
  EXPECT_EQ(runs[0].winner_arm, -1);
  EXPECT_EQ(runs[0].arms_launched, 4);
  EXPECT_EQ(runs[0].arms_cancelled, 0);
  EXPECT_FALSE(runs[0].failure_reason.empty());
  EXPECT_EQ(last_arm.failure_reason,
            "replayed arm no longer yields a certificate: " +
                runs[0].failure_reason);
  EXPECT_EQ(runs[0].max_identity_residual, last_arm.max_identity_residual);
  EXPECT_EQ(runs[0].min_gram_eigenvalue, last_arm.min_gram_eigenvalue);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("width index " + std::to_string(i));
    expect_same_result(runs[0], runs[i]);
  }
}

TEST(BarrierLadder, ParentCancelEndsLadderAsPreempted) {
  const Ccds sys = toy2();
  BarrierConfig cfg;
  cfg.race.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  JobControl control;
  control.cancel();
  cfg.sdp.control = &control;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.winner_arm, -1);
  EXPECT_EQ(result.arms_launched, 0);
  EXPECT_NE(result.failure_reason.find("preempted"), std::string::npos)
      << result.failure_reason;
}

TEST(BarrierLadder, ReplayOfWinnerArmEqualsLadder) {
  const Ccds sys = lightly_damped();
  const BarrierConfig cfg = grinder_config();
  const BarrierResult ladder = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  ASSERT_TRUE(ladder.success) << ladder.failure_reason;

  BarrierConfig replay_cfg = cfg;
  replay_cfg.race.replay_arm = ladder.winner_arm;
  set_parallel_threads(1);
  const BarrierResult replayed =
      synthesize_barrier(sys, {Polynomial(2)}, replay_cfg);
  set_parallel_threads(0);
  ASSERT_TRUE(replayed.success) << replayed.failure_reason;
  // Bitwise: Polynomial equality is exact coefficient equality.
  EXPECT_TRUE(replayed.barrier == ladder.barrier);
  EXPECT_TRUE(replayed.lambda == ladder.lambda);
  EXPECT_EQ(replayed.degree, ladder.degree);
  EXPECT_EQ(replayed.strategy_used, ladder.strategy_used);
  EXPECT_EQ(replayed.accepted_via, ladder.accepted_via);
  EXPECT_EQ(replayed.winner_arm, ladder.winner_arm);
  EXPECT_EQ(replayed.winner_arm_desc, ladder.winner_arm_desc);
  EXPECT_EQ(replayed.max_identity_residual, ladder.max_identity_residual);
  EXPECT_EQ(replayed.min_gram_eigenvalue, ladder.min_gram_eigenvalue);
}

TEST(BarrierLadder, ReplayArmOutOfRangeIsRejected) {
  const Ccds sys = toy2();
  BarrierConfig cfg;
  cfg.race.replay_arm = 10000;
  const BarrierResult result = synthesize_barrier(sys, {Polynomial(2)}, cfg);
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.failure_reason.find("replay_arm"), std::string::npos)
      << result.failure_reason;
}

TEST(BarrierLadder, ArmGridAndReplayEnterConfigHash) {
  // The strategy list defines the arm grid and replay_arm picks one arm:
  // both can change the certificate, so both are part of the cache key.
  BarrierConfig plain;
  BarrierConfig grid = plain;
  grid.race.strategies = {LambdaStrategy::kConstant, LambdaStrategy::kLinear};
  BarrierConfig replay = grid;
  replay.race.replay_arm = 3;
  Fnv1a h_plain, h_grid, h_replay;
  hash_append(h_plain, plain);
  hash_append(h_grid, grid);
  hash_append(h_replay, replay);
  EXPECT_NE(h_plain.digest(), h_grid.digest());
  EXPECT_NE(h_grid.digest(), h_replay.digest());
}

}  // namespace
}  // namespace scs
