// Adam optimizer over flat parameter vectors (Kingma & Ba), or over a
// network's parameters in place in the same flat order.
#pragma once

#include <utility>

#include "math/vec.hpp"

namespace scs {

class Mlp;

struct AdamConfig {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

/// Stateful Adam on a fixed-size parameter vector.
class Adam {
 public:
  Adam(std::size_t parameter_count, const AdamConfig& config = {});

  /// One update: params -= lr * mhat / (sqrt(vhat) + eps).
  void step(Vec& params, const Vec& grad);
  /// The same update on `net`'s parameters in place, `grad` in the flat
  /// layout of Mlp::parameters().
  void step(Mlp& net, const Vec& grad);

  void reset();
  const AdamConfig& config() const { return config_; }

 private:
  /// Advance the step count; returns the two bias corrections.
  std::pair<double, double> advance();
  /// Update n parameters whose moments start at flat index `offset`.
  void update(double* params, const double* grad, std::size_t offset,
              std::size_t n, std::pair<double, double> bias_correction);

  AdamConfig config_;
  Vec m_;
  Vec v_;
  long t_ = 0;
};

}  // namespace scs
