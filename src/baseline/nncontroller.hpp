// The 'nncontroller' comparison baseline of Table 2 (Zhao et al. [18]):
// learn a neural controller *and* a neural barrier certificate jointly by
// supervised condition losses, then verify the learned certificate
// exhaustively.
//
// Substitution (see DESIGN.md): the original verifies with an SMT solver;
// offline we use an exhaustive grid check over Psi with a per-cell margin.
// Both are exponential in the state dimension, which is exactly the scaling
// behaviour Table 2 demonstrates (success for n <= 3, failure beyond).
#pragma once

#include <cstdint>
#include <string>

#include "systems/ccds.hpp"
#include "util/rng.hpp"

namespace scs {

struct NnControllerConfig {
  std::vector<std::size_t> controller_hidden = {30};
  std::vector<std::size_t> barrier_hidden = {30};
  int train_iterations = 4000;
  std::size_t batch_per_set = 32;
  double lr = 1e-3;
  // Condition-loss margins.
  double margin_init = 0.1;     // B >= margin on Theta
  double margin_unsafe = 0.1;   // B <= -margin on X_u
  double margin_lie = 0.02;     // dB/dt >= margin near {B ~ 0}
  double lie_band = 0.3;        // Gaussian window width on |B|
  double lie_dt = 0.02;         // finite-difference horizon for dB/dt
  // Verification.
  double grid_cell = 0.05;      // target grid spacing per axis
  double verify_margin = 0.0;   // extra slack demanded at grid points
  double verify_budget_seconds = 60.0;
  std::uint64_t seed = 11;
};

struct NnControllerResult {
  bool success = false;       // trained and verified
  bool verified = false;
  double train_seconds = 0.0;
  double verify_seconds = 0.0;   // T_n when verified
  double total_seconds = 0.0;
  double train_loss = 0.0;       // smoothed condition loss after training
  std::uint64_t grid_points = 0; // size of the verification grid (0: skipped)
  std::string barrier_structure;  // e.g. "2-30-1" as in Table 2
  std::string reason;            // failure explanation ("x" cases)
};

/// Run the full baseline on one system.
NnControllerResult run_nncontroller(const Ccds& system,
                                    const NnControllerConfig& config);

}  // namespace scs
