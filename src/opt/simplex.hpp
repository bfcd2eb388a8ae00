// Dense two-phase revised simplex for standard-form linear programs:
//
//     min c'x   s.t.  A x = b,  x >= 0.
//
// Sized for the small exact LPs inside the minimax exchange refinement: the
// dual support LP has v+1 rows (v basis terms, tens) and 2s columns (s
// support points, up to about a thousand); the large scenario programs never
// reach this solver directly -- see minimax_fit.hpp.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/cancellation.hpp"

namespace scs {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,   // wall_clock_seconds budget or job deadline exhausted
  kCancelled,   // LpOptions::control requested cancellation
};

const char* to_string(LpStatus status);

struct LpProblem {
  Mat a;  // m x n
  Vec b;  // length m
  Vec c;  // length n
};

struct LpSolution {
  LpStatus status = LpStatus::kIterationLimit;
  Vec x;
  double objective = 0.0;
  Vec dual;  // y with A' y <= c at optimality
  std::vector<std::size_t> basis;
  int iterations = 0;
};

struct LpOptions {
  int max_iterations = 20000;
  double tol = 1e-9;
  /// Wall-clock budget in seconds for the whole solve (both phases and the
  /// Bland fallback); 0 = unlimited.
  double wall_clock_seconds = 0.0;
  /// When Dantzig pricing hits the iteration limit (heavy degeneracy /
  /// cycling), restart the failed phase once under pure Bland's rule, which
  /// terminates by construction.
  bool bland_restart = true;
  /// Job-level preemption (borrowed, may be null): polled on the same coarse
  /// cadence as the wall-clock budget so a cancellation or job deadline
  /// stops the solve mid-phase. Runtime plumbing only -- never hashed.
  const JobControl* control = nullptr;
};

/// Solve a standard-form LP. Rows of A should be linearly independent;
/// redundant-but-consistent rows are tolerated (artificials pinned at zero).
LpSolution solve_lp(const LpProblem& problem, const LpOptions& options = {});

}  // namespace scs
