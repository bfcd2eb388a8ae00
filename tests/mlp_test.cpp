// Tests for the MLP substrate: forward pass, gradient checking, batched
// passes against the row-at-a-time pass, parameter round trips, soft
// updates.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "math/simd.hpp"
#include "nn/mlp.hpp"
#include "row_reference.hpp"
#include "util/check.hpp"

namespace scs {
namespace {

bool bits_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(const Vec& a, const Vec& b) {
  return bits_equal(a.data(), b.data());
}

TEST(Mlp, ForwardShapesAndStructureString) {
  Rng rng(1);
  Mlp net(3, {30, 30, 30, 30, 30}, 1, Activation::kRelu, Activation::kTanh,
          rng);
  EXPECT_EQ(net.input_dim(), 3u);
  EXPECT_EQ(net.output_dim(), 1u);
  EXPECT_EQ(net.layer_count(), 6u);
  EXPECT_EQ(net.structure_string(), "3-30-30-30-30-30-1");
  const Vec y = net.forward(Vec{0.1, -0.2, 0.3});
  ASSERT_EQ(y.size(), 1u);
  EXPECT_LE(std::fabs(y[0]), 1.0);  // tanh output range
}

TEST(Mlp, ParameterRoundTrip) {
  Rng rng(2);
  Mlp net(2, {5}, 2, Activation::kRelu, Activation::kIdentity, rng);
  const Vec p = net.parameters();
  EXPECT_EQ(p.size(), net.parameter_count());
  EXPECT_EQ(p.size(), 2u * 5u + 5u + 5u * 2u + 2u);
  Vec p2 = p;
  for (auto& v : p2) v += 0.5;
  net.set_parameters(p2);
  EXPECT_LT(max_abs_diff(net.parameters(), p2), 1e-15);
}

/// One input row as a 1-row batch.
Mat row_batch(const Vec& x) {
  Mat m(1, x.size());
  m.set_row(0, x);
  return m;
}

TEST(Mlp, GradientCheckTanh) {
  // Finite-difference check of dL/dtheta with L = y (single output).
  Rng rng(3);
  Mlp net(2, {4, 4}, 1, Activation::kTanh, Activation::kTanh, rng);
  const Vec x{0.3, -0.7};

  Mlp::BatchWorkspace ws;
  net.forward_batch(row_batch(x), ws);
  Vec grad(net.parameter_count(), 0.0);
  net.backward_batch(ws, Mat(1, 1, 1.0), grad.begin());

  const Vec p = net.parameters();
  const double h = 1e-6;
  for (std::size_t i = 0; i < p.size(); i += 7) {  // spot check
    Vec pp = p;
    pp[i] += h;
    net.set_parameters(pp);
    const double yp = net.forward(x)[0];
    pp[i] -= 2 * h;
    net.set_parameters(pp);
    const double ym = net.forward(x)[0];
    net.set_parameters(p);
    EXPECT_NEAR(grad[i], (yp - ym) / (2 * h), 1e-5)
        << "parameter index " << i;
  }
}

TEST(Mlp, GradientCheckReluInputGradient) {
  Rng rng(4);
  Mlp net(3, {8}, 2, Activation::kRelu, Activation::kIdentity, rng);
  const Vec x{0.5, -0.3, 0.9};
  Mlp::BatchWorkspace ws;
  net.forward_batch(row_batch(x), ws);
  Vec grad(net.parameter_count(), 0.0);
  const Vec dy{1.0, -2.0};
  const Vec dx = net.backward_batch(ws, row_batch(dy), grad.begin()).row(0);

  const double h = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    Vec xp = x;
    xp[i] += h;
    const Vec yp = net.forward(xp);
    xp[i] -= 2 * h;
    const Vec ym = net.forward(xp);
    const double fd = (dot(dy, yp) - dot(dy, ym)) / (2 * h);
    EXPECT_NEAR(dx[i], fd, 1e-5);
  }
}

TEST(Mlp, BackwardBatchSumsRows) {
  Rng rng(5);
  Mlp net(1, {3}, 1, Activation::kTanh, Activation::kIdentity, rng);
  Mlp::BatchWorkspace ws;
  Vec g1(net.parameter_count(), 0.0);
  net.forward_batch(Mat(1, 1, 0.5), ws);
  net.backward_batch(ws, Mat(1, 1, 1.0), g1.begin());
  // The same sample twice accumulates exactly double, and a pass without a
  // gradient buffer gives the same input gradient.
  Vec g2(net.parameter_count(), 0.0);
  net.forward_batch(Mat(2, 1, 0.5), ws);
  const Mat dx = net.backward_batch(ws, Mat(2, 1, 1.0), g2.begin());
  for (std::size_t i = 0; i < g1.size(); ++i) EXPECT_EQ(g2[i], 2.0 * g1[i]);
  EXPECT_TRUE(bits_equal(net.backward_batch(ws, Mat(2, 1, 1.0), nullptr).row(1),
                         dx.row(0)));
}

// ---- Batched passes vs the row-at-a-time pass, bit for bit -----------------

struct BatchResult {
  std::vector<double> y, grad, dx;
};

BatchResult run_batch(const Mlp& net, const Mat& x, const Mat& dy) {
  Mlp::BatchWorkspace ws;
  BatchResult out;
  const Mat& y = net.forward_batch(x, ws);
  out.y.assign(y.row_ptr(0), y.row_ptr(0) + y.rows() * y.cols());
  Vec grad(net.parameter_count(), 0.0);
  const Mat& dx = net.backward_batch(ws, dy, grad.begin());
  out.dx.assign(dx.row_ptr(0), dx.row_ptr(0) + dx.rows() * dx.cols());
  out.grad = grad.data();
  return out;
}

BatchResult run_rows(const Mlp& net, const Mat& x, const Mat& dy) {
  BatchResult out;
  Vec grad(net.parameter_count(), 0.0);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const test::RowPass pass = test::row_forward(net, x.row(r));
    const Vec y = net.forward(x.row(r));
    EXPECT_TRUE(bits_equal(y, pass.post.back()));
    out.y.insert(out.y.end(), y.begin(), y.end());
    const Vec dx = test::row_backward(net, pass, dy.row(r), grad);
    out.dx.insert(out.dx.end(), dx.begin(), dx.end());
  }
  out.grad = grad.data();
  return out;
}

TEST(Mlp, BatchPassesMatchRowAtATimeBitwise) {
  // Widths cover the kernels' register tiles and every tail: 1..3-wide
  // inputs (no full 4-lane chunk), 64-wide ReLU layers, odd row counts,
  // some zero output gradients (the input gradient skips zero terms).
  struct Case {
    std::size_t in;
    std::vector<std::size_t> hidden;
    std::size_t out;
    Activation hidden_act, out_act;
    std::size_t rows;
  };
  const Case cases[] = {
      {3, {64, 64}, 1, Activation::kRelu, Activation::kIdentity, 64},
      {2, {20, 20, 20, 20}, 1, Activation::kTanh, Activation::kTanh, 64},
      {5, {7, 9}, 3, Activation::kRelu, Activation::kTanh, 13},
      {1, {6}, 2, Activation::kIdentity, Activation::kIdentity, 3},
      {9, {13}, 5, Activation::kTanh, Activation::kIdentity, 1},
  };
  std::vector<simd::Kernel> kernels{simd::Kernel::kScalar};
  if (simd::avx2_available()) kernels.push_back(simd::Kernel::kAvx2);
  Rng rng(8);
  for (const Case& c : cases) {
    const Mlp net(c.in, c.hidden, c.out, c.hidden_act, c.out_act, rng);
    Mat x(c.rows, c.in), dy(c.rows, c.out);
    for (std::size_t r = 0; r < c.rows; ++r) {
      x.set_row(r, Vec(rng.uniform_vector(c.in, -2.0, 2.0)));
      if (r % 5 != 4) dy.set_row(r, Vec(rng.uniform_vector(c.out, -1.0, 1.0)));
    }
    std::vector<BatchResult> per_kernel;
    for (simd::Kernel k : kernels) {
      simd::set_kernel_override(k);
      const BatchResult batch = run_batch(net, x, dy);
      const BatchResult rows = run_rows(net, x, dy);
      simd::set_kernel_override(simd::Kernel::kAuto);
      const std::string where = net.structure_string() + " on " +
                                (k == simd::Kernel::kAvx2 ? "avx2" : "scalar");
      EXPECT_TRUE(bits_equal(batch.y, rows.y)) << where;
      EXPECT_TRUE(bits_equal(batch.grad, rows.grad)) << where;
      EXPECT_TRUE(bits_equal(batch.dx, rows.dx)) << where;
      per_kernel.push_back(batch);
    }
    for (const BatchResult& b : per_kernel) {
      EXPECT_TRUE(bits_equal(b.grad, per_kernel[0].grad));
      EXPECT_TRUE(bits_equal(b.dx, per_kernel[0].dx));
    }
  }
}

TEST(Mlp, BackwardBatchRejectsMismatchedShapes) {
  Rng rng(9);
  Mlp net(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  Mlp::BatchWorkspace ws;
  EXPECT_THROW(net.forward_batch(Mat(3, 3), ws), PreconditionError);
  net.forward_batch(Mat(3, 2), ws);
  EXPECT_THROW(net.backward_batch(ws, Mat(2, 1), nullptr), PreconditionError);
  Mlp other(3, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  EXPECT_THROW(other.backward_batch(ws, Mat(3, 1), nullptr), PreconditionError);
}

TEST(Mlp, SoftUpdateInterpolates) {
  Rng rng(6);
  Mlp a(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  Mlp b(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  const Vec pa = a.parameters();
  const Vec pb = b.parameters();
  a.soft_update_from(b, 0.25);
  const Vec pc = a.parameters();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_NEAR(pc[i], 0.75 * pa[i] + 0.25 * pb[i], 1e-12);
}

TEST(Mlp, RejectsBadShapes) {
  Rng rng(7);
  Mlp net(2, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  EXPECT_THROW(net.set_parameters(Vec(3)), PreconditionError);
  Mlp other(3, {4}, 1, Activation::kRelu, Activation::kTanh, rng);
  EXPECT_THROW(net.soft_update_from(other, 0.1), PreconditionError);
  EXPECT_THROW(Mlp(0, {}, 1, Activation::kRelu, Activation::kTanh, rng),
               PreconditionError);
}

TEST(Activations, Values) {
  const Vec pre{-1.0, 0.0, 2.0};
  const Vec relu = activate(Activation::kRelu, pre);
  EXPECT_DOUBLE_EQ(relu[0], 0.0);
  EXPECT_DOUBLE_EQ(relu[2], 2.0);
  const Vec th = activate(Activation::kTanh, pre);
  EXPECT_NEAR(th[0], std::tanh(-1.0), 1e-15);
  const Vec id = activate(Activation::kIdentity, pre);
  EXPECT_DOUBLE_EQ(id[0], -1.0);
}

}  // namespace
}  // namespace scs
