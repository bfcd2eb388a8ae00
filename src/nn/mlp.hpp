// Feed-forward multilayer perceptron with manual backpropagation.
//
// This is the DNN-controller substrate for Section 3.1: actors are
// "n-30(5)-1" style ReLU networks with tanh output (as in Table 2); the DDPG
// critic reuses the same class with an identity output.
//
// Training passes are batched: rows of a Mat are samples (forward_batch /
// backward_batch). Gradients use the flat parameter layout (layer-major: W
// row-major, then b), which the Adam optimizer walks in place.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "util/rng.hpp"

namespace scs {

enum class Activation { kIdentity, kRelu, kTanh };

/// Apply an activation elementwise.
Vec activate(Activation act, const Vec& pre);

class Mlp {
 public:
  Mlp() = default;

  /// Fully connected net: input -> hidden[0] -> ... -> output.
  /// Hidden layers use `hidden_act`; the last layer uses `output_act`.
  /// Weights get He/Xavier-style initialization from `rng`.
  Mlp(std::size_t input_dim, const std::vector<std::size_t>& hidden,
      std::size_t output_dim, Activation hidden_act, Activation output_act,
      Rng& rng);

  std::size_t input_dim() const;
  std::size_t output_dim() const;
  std::size_t layer_count() const { return weights_.size(); }

  /// Plain forward pass.
  Vec forward(const Vec& x) const;

  /// Layer outputs of a forward_batch() pass, kept for backward_batch().
  /// Rows are samples. Sized on first use; reused while the shape holds.
  struct BatchWorkspace {
    std::vector<Mat> post;   // post[0]: the input rows; post[k+1]: layer k
    std::vector<Mat> delta;  // backward: delta[k] = dL/d(post[k])
  };

  /// Forward pass over the rows of `x`; returns the output rows (held in
  /// `ws`). Each row gets the bits forward() gives it.
  const Mat& forward_batch(const Mat& x, BatchWorkspace& ws) const;

  /// Backpropagate the output-gradient rows `dy` through the pass recorded
  /// in `ws`; returns dL/dx per row (held in `ws`). Unless `grad` is null,
  /// adds the parameter gradients to it (flattened layout,
  /// parameter_count() long), row by row: each element gets the additions
  /// of a per-row loop over the samples in order.
  const Mat& backward_batch(BatchWorkspace& ws, const Mat& dy,
                            double* grad) const;

  /// Number of scalar parameters.
  std::size_t parameter_count() const;

  /// Flattened parameters (layer-major; W row-major, then b).
  Vec parameters() const;
  void set_parameters(const Vec& flat);

  /// Visit the parameters in place as contiguous blocks, in the flat order
  /// of parameters(): f(data, count) for W_0, b_0, W_1, b_1, ...
  template <class F>
  void for_each_parameter_block(F&& f) {
    for (std::size_t k = 0; k < weights_.size(); ++k) {
      f(weights_[k].row_ptr(0), weights_[k].rows() * weights_[k].cols());
      f(biases_[k].begin(), biases_[k].size());
    }
  }

  /// Soft update toward another net: theta <- tau * other + (1-tau) * theta.
  /// Architectures must match.
  void soft_update_from(const Mlp& other, double tau);

  const Mat& weight(std::size_t layer) const { return weights_[layer]; }
  const Vec& bias(std::size_t layer) const { return biases_[layer]; }
  Mat& mutable_weight(std::size_t layer) { return weights_[layer]; }
  Vec& mutable_bias(std::size_t layer) { return biases_[layer]; }

  /// Rescale the output layer's weights and biases (the DDPG paper's small
  /// final-layer initialization, preventing early tanh saturation).
  void scale_output_layer(double factor);
  Activation activation(std::size_t layer) const { return acts_[layer]; }

  /// "n-30(5)-1"-style structure string as printed in Table 2.
  std::string structure_string() const;

 private:
  std::vector<Mat> weights_;  // weights_[k]: (out_k x in_k)
  std::vector<Vec> biases_;
  std::vector<Activation> acts_;
};

}  // namespace scs
