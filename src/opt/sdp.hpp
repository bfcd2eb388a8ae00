// Block-diagonal semidefinite programming with free variables, solved by an
// infeasible-start primal-dual interior-point method (HKM search direction
// with Mehrotra predictor-corrector).
//
// Primal form:
//
//   min  sum_l w_l tr(X_l) + c_f' f
//   s.t. sum_l <A_il, X_l> + (B f)_i = b_i,   i = 1..m
//        X_l >= 0 (PSD),  f free,
//
// which is exactly the shape produced by the SOS compiler for the barrier
// program (12): one PSD block per Gram matrix, free variables for the
// barrier coefficients b, and one equality per matched monomial.
//
// The paper offloads this step to PENBMI / LMI solvers; this in-repo solver
// is the substitution documented in DESIGN.md.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/cancellation.hpp"

namespace scs {

class Fnv1a;

/// One entry of a symmetric constraint matrix: A(row,col) = A(col,row) =
/// value (specify each unordered pair once; row <= col recommended).
struct SdpEntry {
  std::size_t block = 0;
  std::size_t row = 0;
  std::size_t col = 0;
  double value = 0.0;
};

struct SdpConstraint {
  std::vector<SdpEntry> entries;
  std::vector<std::pair<std::size_t, double>> free_terms;  // (index, coeff)
  double rhs = 0.0;
};

struct SdpProblem {
  std::vector<std::size_t> block_dims;
  std::size_t num_free = 0;
  std::vector<SdpConstraint> constraints;
  /// Per-block objective weight w_l (C_l = w_l * I). A small uniform weight
  /// turns a feasibility problem into a well-posed trace minimization.
  std::vector<double> block_obj_weight;
  Vec free_obj;  // optional; zero if empty
};

enum class SdpStatus {
  kConverged,          // small residuals and duality gap
  kMaxIterations,      // ran out of iterations (inspect residuals)
  kNumericalFailure,   // lost positive definiteness / factorization failed
  kInfeasible,         // structurally infeasible (inconsistent empty row)
  kStalled,            // no merit progress over a full stall window, or the
                       // step lengths collapsed (structured, not garbage)
  kTimeLimit,          // wall_clock_budget / job deadline exhausted mid-solve
  kCancelled,          // SdpOptions::control requested cancellation
};

const char* to_string(SdpStatus status);

struct SdpSolution {
  SdpStatus status = SdpStatus::kNumericalFailure;
  std::vector<Mat> x;  // primal PSD blocks
  Vec free_vars;
  Vec y;               // dual multipliers per constraint
  double primal_objective = 0.0;
  double primal_infeasibility = 0.0;  // ||b - A(X) - Bf|| / (1 + ||b||)
  double dual_infeasibility = 0.0;
  double duality_gap = 0.0;           // normalized <X, S>
  int iterations = 0;
  /// Rescale-and-retry restarts consumed before this solution was produced.
  int restarts = 0;
};

struct SdpOptions {
  int max_iterations = 100;
  double tol_feasibility = 1e-7;
  double tol_gap = 1e-7;
  double step_fraction = 0.98;
  double initial_scale = 0.0;  // 0 = auto from problem data
  bool verbose = false;

  // ---- Robustness controls.
  /// Stall detector: no relative merit improvement of at least
  /// `stall_improvement` over `stall_window` consecutive iterations reports
  /// kStalled instead of grinding to kMaxIterations.
  int stall_window = 15;
  double stall_improvement = 0.05;
  /// Bounded retry-and-rescale: after kStalled / kNumericalFailure the solve
  /// restarts with the initial scale multiplied by `retry_scale_factor`
  /// (alternating above / below the base scale), up to `max_retries` times.
  int max_retries = 2;
  double retry_scale_factor = 8.0;
  /// Wall-clock budget in seconds for the whole solve including retries;
  /// 0 = unlimited. Exceeding it reports kTimeLimit.
  double wall_clock_budget = 0.0;
  /// Job-level preemption (borrowed, may be null): checked every iteration,
  /// so a cancellation or job deadline stops the solve mid-interior-point
  /// instead of waiting for the constructed budget above. Runtime plumbing
  /// only -- deliberately excluded from hash_append (two runs differing
  /// only in their control share cache keys and, absent a stop, results).
  const JobControl* control = nullptr;
};

/// Solve from the identity start at the auto (or configured) scale;
/// stalls and numerical failures retry at rescaled starts.
SdpSolution solve_sdp(const SdpProblem& problem,
                      const SdpOptions& options = {});

/// Work threshold (touching-constraint count x block dim^2) at or above
/// which the Schur-complement assembly fans its columns out over the thread
/// pool; smaller blocks assemble serially, where the fork/join handshake
/// would cost more than the work. The gate depends only on the problem
/// shape, and column outputs are disjoint, so results are bitwise-identical
/// either way.
std::size_t schur_parallel_threshold();

/// Bench/test hook (thread-local): override the Schur parallel threshold --
/// 0 forces the pooled path for every size, SIZE_MAX forces serial. Pass
/// `reset_schur_parallel_threshold()` to restore the built-in default.
void set_schur_parallel_threshold(std::size_t flops);
void reset_schur_parallel_threshold();

void hash_append(Fnv1a& h, const SdpOptions& o);

}  // namespace scs
