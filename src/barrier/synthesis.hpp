// Barrier-certificate generation for the closed-loop system under the
// synthesized polynomial controller (Section 4, program (12)).
//
// The three conditions of Theorem 1 are encoded with Putinar multipliers:
//
//   (1)  B - sum_i sigma_i g_i            is SOS          (B >= 0 on Theta)
//   (2)  L_f B - lambda B - sum_j phi_j h_j - rho   is SOS (boundary push)
//   (3) -B - rho' - sum_k xi_k q_k        is SOS          (B < 0 on X_u)
//
// lambda(x) makes (2) bilinear; per the paper we either fix lambda to a
// (random) constant / linear polynomial -- an LMI -- or run an alternating
// BMI heuristic (fix lambda, solve for B; fix B, solve for lambda) in place
// of PENBMI.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "opt/sdp.hpp"
#include "poly/polynomial.hpp"
#include "systems/ccds.hpp"
#include "util/rng.hpp"

namespace scs {

class Fnv1a;

enum class LambdaStrategy {
  kZero,         // lambda = 0
  kConstant,     // lambda = random negative constant (LMI)
  kLinear,       // lambda = random linear polynomial (LMI)
  kAlternating,  // alternating BMI heuristic
};

std::string to_string(LambdaStrategy s);

struct BarrierConfig {
  /// d_B values to attempt; must not be empty. The pipeline fills in the
  /// benchmark's own Benchmark::barrier_degrees when left empty.
  std::vector<int> degree_schedule;
  double rho = 1e-3;        // strict positivity margin in (2)
  double rho_prime = 1e-3;  // strict negativity margin in (3)
  /// Lambda strategies of the arm grid, in ladder order: strategies[0]
  /// runs on every candidate controller in turn, each later strategy on
  /// candidate 0 only (the pipeline appends the alternating-BMI rescue).
  std::vector<LambdaStrategy> strategies = {LambdaStrategy::kConstant};
  int lambda_attempts = 4;   // random lambda retries per degree
  int bmi_rounds = 4;        // alternating rounds (kAlternating only)
  std::uint64_t seed = 7;
  SdpOptions sdp;
  double identity_tol = 2e-5;
  double gram_tol = 1e-6;
  /// Guard: skip degree/dimension combinations whose SDP would exceed this
  /// many equality constraints. The interior-point Schur solve is O(m^3)
  /// per iteration, so m ~ 3000 is the practical single-core ceiling.
  std::size_t max_sdp_constraints = 3000;
};

void hash_append(Fnv1a& h, const BarrierConfig& c);

struct BarrierResult {
  bool success = false;
  Polynomial barrier;        // B(x)
  Polynomial lambda;         // the lambda(x) used in (2)
  int degree = 0;            // d_B
  double seconds = 0.0;      // T_p: wall-clock of the verification stage
  LambdaStrategy strategy_used = LambdaStrategy::kConstant;
  int attempts = 0;  // SOS programs of arms 0..winner_arm (all on failure)
  std::string failure_reason;
  double max_identity_residual = 0.0;
  double min_gram_eigenvalue = 0.0;
  /// How the accepted certificate's final solve was produced: "lmi",
  /// "bmi-lambda" (alternating lambda-step), "bmi-b" (alternating B-step);
  /// "" when no certificate was found. The reported diagnostics above
  /// always belong to this accepted solve.
  std::string accepted_via;
  /// Flat index of the arm that produced the certificate in the grid;
  /// -1 when no arm succeeded.
  int winner_arm = -1;
  /// Index of the winner's candidate controller; -1 when no arm succeeded.
  int winner_candidate = -1;
  /// Human-readable winner identity, "d_p=3/constant/d=4/a=1" (d_p is the
  /// candidate controller's degree).
  std::string winner_arm_desc;
  /// Ladder telemetry, identical at every pool width: arms 0..winner_arm
  /// that began solving (every arm on failure), and the arms after the
  /// winner that were not needed. Speculative work actually spent on those
  /// shows in the race.arms_launched / race.arms_cancelled counters.
  int arms_launched = 0;
  int arms_cancelled = 0;
};

/// Synthesize a barrier certificate for the closed-loop system f(x, p(x)),
/// trying each candidate controller p (one polynomial per control input)
/// as one ladder. The arm grid is (candidate x lambda-strategy x degree x
/// attempt), in the order BarrierConfig::strategies describes; each rung
/// (one candidate, one strategy) draws its arms' Rng streams by the arm's
/// index within the rung, forked from BarrierConfig::seed. The arms run
/// across the work pool, each under its own child JobControl, and the
/// lowest-index feasible arm wins: a feasible arm cancels only the arms
/// after it, and the arms before it always run to the end. The result is
/// therefore the serial walk's answer, bit for bit, at any pool width.
BarrierResult synthesize_barrier(
    const Ccds& system, const std::vector<std::vector<Polynomial>>& candidates,
    const BarrierConfig& config);

/// Same, for a single candidate controller.
inline BarrierResult synthesize_barrier(
    const Ccds& system, const std::vector<Polynomial>& controller,
    const BarrierConfig& config) {
  return synthesize_barrier(
      system, std::vector<std::vector<Polynomial>>{controller}, config);
}

}  // namespace scs
