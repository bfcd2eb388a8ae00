// Row-at-a-time MLP reference for the batched-pass tests: a forward pass
// that records each layer, and the per-sample backward pass (parameter
// gradients accumulated sample by sample, the input gradient as matvec_t)
// whose bits Mlp::forward_batch / Mlp::backward_batch must reproduce.
#pragma once

#include <vector>

#include "math/mat.hpp"
#include "math/vec.hpp"
#include "nn/mlp.hpp"

namespace scs::test {

struct RowPass {
  std::vector<Vec> pre;   // pre-activation per layer
  std::vector<Vec> post;  // post[0] is the input; post[k+1] = layer k output
};

inline RowPass row_forward(const Mlp& net, const Vec& x) {
  RowPass pass;
  pass.post.push_back(x);
  for (std::size_t k = 0; k < net.layer_count(); ++k) {
    Vec pre = matvec(net.weight(k), pass.post.back());
    pre += net.bias(k);
    pass.post.push_back(activate(net.activation(k), pre));
    pass.pre.push_back(std::move(pre));
  }
  return pass;
}

/// Adds dL/dtheta for one sample to `grad` (flat layout); returns dL/dx.
inline Vec row_backward(const Mlp& net, const RowPass& pass, const Vec& dy,
                        Vec& grad) {
  std::vector<std::size_t> offsets;
  std::size_t pos = 0;
  for (std::size_t k = 0; k < net.layer_count(); ++k) {
    offsets.push_back(pos);
    pos += net.weight(k).rows() * net.weight(k).cols() + net.bias(k).size();
  }
  Vec delta = dy;
  for (std::size_t kk = net.layer_count(); kk-- > 0;) {
    const Mat& w = net.weight(kk);
    const Vec& input = pass.post[kk];
    Vec dpre(delta.size());
    for (std::size_t i = 0; i < delta.size(); ++i) {
      double g = 1.0;
      if (net.activation(kk) == Activation::kRelu)
        g = pass.pre[kk][i] > 0.0 ? 1.0 : 0.0;
      else if (net.activation(kk) == Activation::kTanh)
        g = 1.0 - pass.post[kk + 1][i] * pass.post[kk + 1][i];
      dpre[i] = delta[i] * g;
    }
    std::size_t p = offsets[kk];
    for (std::size_t i = 0; i < w.rows(); ++i)
      for (std::size_t j = 0; j < w.cols(); ++j)
        grad[p++] += dpre[i] * input[j];
    for (std::size_t i = 0; i < dpre.size(); ++i) grad[p++] += dpre[i];
    delta = matvec_t(w, dpre);
  }
  return delta;
}

}  // namespace scs::test
