#include "nn/mlp.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

#include "math/simd.hpp"
#include "util/check.hpp"

namespace scs {

namespace {

/// p > 0 ? v : +0, without a branch: ReLU signs are unpredictable, and a
/// mispredicted branch per unit costs more than the unit's arithmetic.
inline double keep_if_positive(double p, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  bits &= -static_cast<std::uint64_t>(p > 0.0);
  std::memcpy(&v, &bits, sizeof bits);
  return v;
}

void activate_in_place(Activation act, double* v, std::size_t n) {
  switch (act) {
    case Activation::kIdentity:
      break;
    case Activation::kRelu:
      for (std::size_t i = 0; i < n; ++i) v[i] = keep_if_positive(v[i], v[i]);
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) v[i] = std::tanh(v[i]);
      break;
  }
}

void ensure_shape(Mat& m, std::size_t rows, std::size_t cols) {
  if (m.rows() != rows || m.cols() != cols) m = Mat(rows, cols);
}

}  // namespace

Vec activate(Activation act, const Vec& pre) {
  Vec out(pre);
  activate_in_place(act, out.begin(), out.size());
  return out;
}

Mlp::Mlp(std::size_t input_dim, const std::vector<std::size_t>& hidden,
         std::size_t output_dim, Activation hidden_act, Activation output_act,
         Rng& rng) {
  SCS_REQUIRE(input_dim > 0 && output_dim > 0, "Mlp: zero-sized layer");
  std::vector<std::size_t> dims;
  dims.push_back(input_dim);
  for (std::size_t h : hidden) {
    SCS_REQUIRE(h > 0, "Mlp: zero-sized hidden layer");
    dims.push_back(h);
  }
  dims.push_back(output_dim);

  for (std::size_t k = 0; k + 1 < dims.size(); ++k) {
    const std::size_t in = dims[k];
    const std::size_t out = dims[k + 1];
    const bool last = (k + 2 == dims.size());
    const Activation act = last ? output_act : hidden_act;
    // He initialization for ReLU layers, Xavier-style otherwise.
    const double scale = (act == Activation::kRelu)
                             ? std::sqrt(2.0 / static_cast<double>(in))
                             : std::sqrt(1.0 / static_cast<double>(in));
    Mat w(out, in);
    for (std::size_t i = 0; i < out; ++i)
      for (std::size_t j = 0; j < in; ++j) w(i, j) = rng.normal(0.0, scale);
    weights_.push_back(std::move(w));
    biases_.push_back(Vec(out, 0.0));
    acts_.push_back(act);
  }
}

std::size_t Mlp::input_dim() const {
  SCS_REQUIRE(!weights_.empty(), "Mlp: uninitialized network");
  return weights_.front().cols();
}

std::size_t Mlp::output_dim() const {
  SCS_REQUIRE(!weights_.empty(), "Mlp: uninitialized network");
  return weights_.back().rows();
}

Vec Mlp::forward(const Vec& x) const {
  SCS_REQUIRE(!weights_.empty(), "Mlp::forward: uninitialized network");
  Vec h = x;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    Vec pre = matvec(weights_[k], h);
    pre += biases_[k];
    h = activate(acts_[k], pre);
  }
  return h;
}

const Mat& Mlp::forward_batch(const Mat& x, BatchWorkspace& ws) const {
  SCS_REQUIRE(!weights_.empty(), "Mlp::forward_batch: uninitialized network");
  SCS_REQUIRE(x.cols() == input_dim(),
              "Mlp::forward_batch: input width mismatch");
  const std::size_t rows = x.rows();
  ws.post.resize(weights_.size() + 1);
  ws.post[0] = x;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    const Mat& w = weights_[k];
    const Mat& in = ws.post[k];
    Mat& out = ws.post[k + 1];
    ensure_shape(out, rows, w.rows());
    // matvec's dot per (row, unit), then the bias, then the activation.
    simd::dot_rows(in.row_ptr(0), rows, in.cols(), w.row_ptr(0), w.rows(),
                   w.cols(), w.cols(), out.row_ptr(0), out.cols());
    for (std::size_t r = 0; r < rows; ++r)
      simd::add(out.row_ptr(r), biases_[k].begin(), out.cols());
    activate_in_place(acts_[k], out.row_ptr(0), rows * out.cols());
  }
  return ws.post.back();
}

std::size_t Mlp::parameter_count() const {
  std::size_t total = 0;
  for (std::size_t k = 0; k < weights_.size(); ++k)
    total += weights_[k].rows() * weights_[k].cols() + biases_[k].size();
  return total;
}

Vec Mlp::parameters() const {
  Vec flat(parameter_count());
  std::size_t pos = 0;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    const Mat& w = weights_[k];
    for (std::size_t i = 0; i < w.rows(); ++i)
      for (std::size_t j = 0; j < w.cols(); ++j) flat[pos++] = w(i, j);
    for (std::size_t i = 0; i < biases_[k].size(); ++i)
      flat[pos++] = biases_[k][i];
  }
  return flat;
}

void Mlp::set_parameters(const Vec& flat) {
  SCS_REQUIRE(flat.size() == parameter_count(),
              "Mlp::set_parameters: size mismatch");
  std::size_t pos = 0;
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    Mat& w = weights_[k];
    for (std::size_t i = 0; i < w.rows(); ++i)
      for (std::size_t j = 0; j < w.cols(); ++j) w(i, j) = flat[pos++];
    for (std::size_t i = 0; i < biases_[k].size(); ++i)
      biases_[k][i] = flat[pos++];
  }
}

const Mat& Mlp::backward_batch(BatchWorkspace& ws, const Mat& dy,
                               double* grad) const {
  const std::size_t layers = weights_.size();
  SCS_REQUIRE(ws.post.size() == layers + 1 && ws.post[0].cols() == input_dim(),
              "Mlp::backward_batch: workspace does not match this network");
  const std::size_t rows = ws.post[0].rows();
  for (std::size_t k = 0; k < layers; ++k)
    SCS_REQUIRE(ws.post[k + 1].rows() == rows &&
                    ws.post[k + 1].cols() == weights_[k].rows(),
                "Mlp::backward_batch: workspace does not match this network");
  SCS_REQUIRE(dy.rows() == rows && dy.cols() == output_dim(),
              "Mlp::backward_batch: output gradient shape mismatch");

  ws.delta.resize(layers + 1);
  ws.delta[layers] = dy;
  std::size_t offset = parameter_count();
  for (std::size_t kk = layers; kk-- > 0;) {
    const Mat& w = weights_[kk];
    const std::size_t n_out = w.rows();
    const std::size_t n_in = w.cols();
    const Mat& input = ws.post[kk];
    const Mat& post = ws.post[kk + 1];
    // dL/d(pre) = delta .* act'(pre), in place; act' is read off the
    // output (post > 0 exactly where pre > 0 for ReLU).
    Mat& dpre = ws.delta[kk + 1];
    double* d = dpre.row_ptr(0);
    const double* p = post.row_ptr(0);
    const std::size_t count = rows * n_out;
    if (acts_[kk] == Activation::kRelu) {
      for (std::size_t i = 0; i < count; ++i)
        d[i] *= keep_if_positive(p[i], 1.0);
    } else if (acts_[kk] == Activation::kTanh) {
      for (std::size_t i = 0; i < count; ++i) d[i] *= 1.0 - p[i] * p[i];
    }
    offset -= n_out * n_in + n_out;
    if (grad != nullptr) {
      // dL/dW += dpre^T input and dL/db += dpre, sample by sample.
      double* gw = grad + offset;
      simd::accumulate_rows(gw, n_in, d, n_out, n_out, input.row_ptr(0),
                            n_in, n_in, rows);
      for (std::size_t r = 0; r < rows; ++r)
        simd::add(gw + n_out * n_in, dpre.row_ptr(r), n_out);
    }
    // dL/d(input) = dpre W per row: matvec_t's sum, zero terms skipped.
    Mat& din = ws.delta[kk];
    ensure_shape(din, rows, n_in);
    simd::combine_rows(d, n_out, n_out, w.row_ptr(0), n_in, n_in,
                       din.row_ptr(0), n_in, rows);
  }
  return ws.delta[0];
}

void Mlp::soft_update_from(const Mlp& other, double tau) {
  bool same = weights_.size() == other.weights_.size();
  for (std::size_t k = 0; same && k < weights_.size(); ++k)
    same = weights_[k].rows() == other.weights_[k].rows() &&
           weights_[k].cols() == other.weights_[k].cols();
  SCS_REQUIRE(same, "Mlp::soft_update_from: architecture mismatch");
  auto track = [tau](double* mine, const double* theirs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i)
      mine[i] = tau * theirs[i] + (1.0 - tau) * mine[i];
  };
  for (std::size_t k = 0; k < weights_.size(); ++k) {
    track(weights_[k].row_ptr(0), other.weights_[k].row_ptr(0),
          weights_[k].rows() * weights_[k].cols());
    track(biases_[k].begin(), other.biases_[k].begin(), biases_[k].size());
  }
}

void Mlp::scale_output_layer(double factor) {
  SCS_REQUIRE(!weights_.empty(), "Mlp::scale_output_layer: uninitialized");
  weights_.back() *= factor;
  biases_.back() *= factor;
}

std::string Mlp::structure_string() const {
  std::ostringstream os;
  os << input_dim();
  for (std::size_t k = 0; k + 1 < weights_.size(); ++k)
    os << '-' << weights_[k].rows();
  os << '-' << output_dim();
  return os.str();
}

}  // namespace scs
