// Tests for the CNN framework: graph-built layer semantics,
// finite-difference gradient checks, optimizer convergence, serialization.
// (Op-level CheckGrad coverage lives in test_autodiff.cpp; these tests
// exercise the Layer descriptors' graph definitions.)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/rng.hpp"
#include "nn/attention.hpp"
#include "nn/conv2d.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/tensor.hpp"

namespace xfc::nn {
namespace {

Tensor random_tensor(std::size_t n, std::size_t c, std::size_t h,
                     std::size_t w, Rng& rng, double scale = 1.0) {
  Tensor t(n, c, h, w);
  for (auto& v : t.vec()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

/// Builds a one-layer inference graph and runs x through it.
Tensor run_layer(Layer& layer, const Tensor& x) {
  Graph g(Graph::Mode::kInfer);
  const NodeRef in = g.input({x.n(), x.c(), x.h(), x.w()});
  const NodeRef out = layer.append(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const GShape s = g.shape(out);
  Tensor y(s.n, s.c, s.h, s.w);
  std::copy(exec.value(out), exec.value(out) + y.size(), y.data());
  return y;
}

/// Scalar loss used by the gradient checks: sum of elementwise products
/// with a fixed random "probe" tensor (gives dense, nontrivial gradients).
double probe_loss(const float* y, const Tensor& probe) {
  double s = 0;
  for (std::size_t i = 0; i < probe.size(); ++i)
    s += static_cast<double>(y[i]) * probe.vec()[i];
  return s;
}

/// Checks dL/d(input) and dL/d(params) of a layer's graph definition
/// against central finite differences, seeding backward with the probe.
void check_gradients(Layer& layer, Tensor x, double tol = 2e-2,
                     double fd_eps = 1e-3) {
  Rng rng(12345);
  Graph g(Graph::Mode::kTrain);
  const NodeRef in =
      g.input({x.n(), x.c(), x.h(), x.w()}, /*needs_grad=*/true);
  const NodeRef out = layer.append(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();

  const GShape os = g.shape(out);
  Tensor probe = random_tensor(os.n, os.c, os.h, os.w, rng);
  g.zero_grad();
  exec.backward_from(out, probe.vec().data());

  const std::vector<float> gx(exec.grad(in), exec.grad(in) + x.size());
  auto params = g.params();
  std::vector<std::vector<float>> analytic;
  for (const Param& p : params) analytic.push_back(*p.grad);

  const auto loss_now = [&] {
    exec.forward();
    return probe_loss(exec.value(out), probe);
  };

  // Input gradient check on a sample of coordinates.
  for (std::size_t trial = 0; trial < 24; ++trial) {
    const std::size_t i = rng.uniform_index(x.size());
    const float orig = x.vec()[i];
    x.vec()[i] = orig + static_cast<float>(fd_eps);
    const double lp = loss_now();
    x.vec()[i] = orig - static_cast<float>(fd_eps);
    const double lm = loss_now();
    x.vec()[i] = orig;
    const double fd = (lp - lm) / (2 * fd_eps);
    EXPECT_NEAR(gx[i], fd, tol * std::max(1.0, std::abs(fd)))
        << "input grad at " << i;
  }

  // Parameter gradient check.
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    std::vector<float>& v = *params[pi].value;
    for (std::size_t trial = 0; trial < 12 && trial < v.size(); ++trial) {
      const std::size_t i = rng.uniform_index(v.size());
      const float orig = v[i];
      v[i] = orig + static_cast<float>(fd_eps);
      const double lp = loss_now();
      v[i] = orig - static_cast<float>(fd_eps);
      const double lm = loss_now();
      v[i] = orig;
      const double fd = (lp - lm) / (2 * fd_eps);
      EXPECT_NEAR(analytic[pi][i], fd, tol * std::max(1.0, std::abs(fd)))
          << "param " << pi << " grad at " << i;
    }
  }
}

TEST(Tensor, ShapeAndIndexing) {
  Tensor t(2, 3, 4, 5);
  EXPECT_EQ(t.size(), 120u);
  t(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t.vec()[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
  EXPECT_EQ(t.plane(1, 2)[3 * 5 + 4], 9.0f);
}

TEST(ReLULayer, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x(1, 1, 1, 4);
  x.vec() = {-1.0f, 0.0f, 2.0f, -0.5f};
  const Tensor y = run_layer(relu, x);
  EXPECT_EQ(y.vec(), (std::vector<float>{0.0f, 0.0f, 2.0f, 0.0f}));
}

TEST(ReLULayer, BackwardMasks) {
  ReLU relu;
  Tensor x(1, 1, 1, 4);
  x.vec() = {-1.0f, 0.5f, 2.0f, -3.0f};
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({1, 1, 1, 4}, /*needs_grad=*/true);
  const NodeRef out = relu.append(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const std::vector<float> seed{1.0f, 1.0f, 1.0f, 1.0f};
  exec.backward_from(out, seed.data());
  const float* gx = exec.grad(in);
  EXPECT_EQ(std::vector<float>(gx, gx + 4),
            (std::vector<float>{0.0f, 1.0f, 1.0f, 0.0f}));
}

TEST(Conv2DLayer, IdentityKernelPassesThrough) {
  Rng rng(3);
  Conv2D conv(1, 1, 3, 1, false, rng);
  std::fill(conv.weight().begin(), conv.weight().end(), 0.0f);
  conv.weight()[4] = 1.0f;  // centre tap
  Tensor x = random_tensor(1, 1, 5, 7, rng);
  const Tensor y = run_layer(conv, x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(y.vec()[i], x.vec()[i], 1e-6);
}

TEST(Conv2DLayer, KnownSmallConvolution) {
  Rng rng(4);
  Conv2D conv(1, 1, 3, 1, false, rng);
  std::fill(conv.weight().begin(), conv.weight().end(), 1.0f);
  Tensor x(1, 1, 3, 3);
  for (std::size_t i = 0; i < 9; ++i) x.vec()[i] = 1.0f;
  const Tensor y = run_layer(conv, x);
  // Centre sees all 9 ones, corner sees 4 (zero padding).
  EXPECT_FLOAT_EQ(y(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y(0, 0, 0, 1), 6.0f);
}

TEST(Conv2DLayer, PointwiseMixesChannelsOnly) {
  Rng rng(5);
  Conv2D conv(2, 1, 1, 1, false, rng);
  conv.weight() = {2.0f, -1.0f};
  Tensor x(1, 2, 2, 2);
  for (std::size_t i = 0; i < 4; ++i) x.plane(0, 0)[i] = 3.0f;
  for (std::size_t i = 0; i < 4; ++i) x.plane(0, 1)[i] = 5.0f;
  const Tensor y = run_layer(conv, x);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(y.plane(0, 0)[i], 2.0f * 3.0f - 1.0f * 5.0f);
}

TEST(Conv2DLayer, DepthwiseKeepsChannelsIndependent) {
  Rng rng(6);
  Conv2D conv(2, 2, 3, 2, false, rng);  // depthwise
  // Channel 0: identity; channel 1: zero.
  std::fill(conv.weight().begin(), conv.weight().end(), 0.0f);
  conv.weight()[4] = 1.0f;
  Tensor x = random_tensor(1, 2, 4, 4, rng);
  const Tensor y = run_layer(conv, x);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_NEAR(y.plane(0, 0)[i], x.plane(0, 0)[i], 1e-6);
    EXPECT_EQ(y.plane(0, 1)[i], 0.0f);
  }
}

TEST(Conv2DLayer, GradientCheckStandard) {
  Rng rng(7);
  Conv2D conv(3, 4, 3, 1, true, rng);
  check_gradients(conv, random_tensor(2, 3, 5, 6, rng));
}

TEST(Conv2DLayer, GradientCheckDepthwise) {
  Rng rng(8);
  Conv2D conv(4, 4, 3, 4, true, rng);
  check_gradients(conv, random_tensor(2, 4, 5, 5, rng));
}

TEST(Conv2DLayer, GradientCheckGrouped) {
  Rng rng(9);
  Conv2D conv(4, 6, 3, 2, true, rng);
  check_gradients(conv, random_tensor(1, 4, 6, 4, rng));
}

TEST(Conv2DLayer, GradientCheckPointwise) {
  Rng rng(10);
  Conv2D conv(5, 3, 1, 1, true, rng);
  check_gradients(conv, random_tensor(2, 5, 4, 4, rng));
}

// The k=5 / batched-grouped cases cover the wide halo, grouped weight
// blocks and the cross-image weight-gradient sums.

TEST(Conv2DLayer, GradientCheckKernel5) {
  Rng rng(30);
  Conv2D conv(2, 3, 5, 1, true, rng);
  check_gradients(conv, random_tensor(2, 2, 7, 6, rng));
}

TEST(Conv2DLayer, GradientCheckGroupedBatched) {
  Rng rng(31);
  Conv2D conv(6, 4, 3, 2, true, rng);
  check_gradients(conv, random_tensor(3, 6, 5, 7, rng));
}

TEST(Conv2DLayer, RejectsBadHyperparameters) {
  Rng rng(11);
  EXPECT_THROW(Conv2D(3, 4, 2, 1, true, rng), InvalidArgument);  // even k
  EXPECT_THROW(Conv2D(3, 4, 3, 2, true, rng), InvalidArgument);  // 3 % 2
}

TEST(ChannelAttentionLayer, OutputIsScaledInput) {
  Rng rng(12);
  ChannelAttention att(4, 2, rng);
  Tensor x = random_tensor(2, 4, 6, 6, rng);
  const Tensor y = run_layer(att, x);
  // Each output plane must be a scalar multiple of its input plane,
  // with the scalar in (0, 1) (sigmoid output).
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t c = 0; c < 4; ++c) {
      const float* xi = x.plane(b, c);
      const float* yi = y.plane(b, c);
      // find a nonzero reference element
      std::size_t r = 0;
      while (r < 36 && std::abs(xi[r]) < 1e-3) ++r;
      ASSERT_LT(r, 36u);
      const float s = yi[r] / xi[r];
      EXPECT_GT(s, 0.0f);
      EXPECT_LT(s, 1.0f);
      for (std::size_t i = 0; i < 36; ++i)
        EXPECT_NEAR(yi[i], xi[i] * s, 1e-4);
    }
}

TEST(ChannelAttentionLayer, GradientCheck) {
  Rng rng(13);
  ChannelAttention att(4, 2, rng);
  check_gradients(att, random_tensor(2, 4, 5, 5, rng), 4e-2);
}

TEST(ChannelAttentionLayer, RejectsIndivisibleReduction) {
  Rng rng(14);
  EXPECT_THROW(ChannelAttention(5, 2, rng), InvalidArgument);
}

TEST(SequentialModel, GradientCheckThroughStack) {
  Rng rng(15);
  Sequential seq;
  seq.add(std::make_unique<Conv2D>(2, 4, 3, 1, true, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<Conv2D>(4, 4, 3, 4, true, rng));  // depthwise
  seq.add(std::make_unique<Conv2D>(4, 4, 1, 1, true, rng));  // pointwise
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<ChannelAttention>(4, 2, rng));
  seq.add(std::make_unique<Conv2D>(4, 1, 3, 1, true, rng));
  check_gradients(seq, random_tensor(1, 2, 6, 6, rng), 5e-2);
}

TEST(SequentialModel, ParamCountSumsLayers) {
  Rng rng(16);
  Sequential seq;
  seq.add(std::make_unique<Conv2D>(2, 3, 3, 1, true, rng));  // 2*3*9+3 = 57
  seq.add(std::make_unique<Conv2D>(3, 2, 1, 1, true, rng));  // 3*2+2 = 8
  EXPECT_EQ(seq.param_count(), 65u);
}

TEST(MseLoss, ValueAndGradient) {
  const std::vector<float> a{1.0f, 3.0f}, b{0.0f, 1.0f};
  Graph g(Graph::Mode::kTrain);
  const NodeRef pred = g.input({1, 1, 1, 2}, /*needs_grad=*/true);
  const NodeRef tgt = g.input({1, 1, 1, 2});
  g.mse_loss(pred, tgt);
  GraphExec exec(g, tls_workspace());
  exec.bind(pred, a.data());
  exec.bind(tgt, b.data());
  exec.forward();
  EXPECT_DOUBLE_EQ(exec.loss(), (1.0 + 4.0) / 2.0);
  exec.backward();
  const float* grad = exec.grad(pred);
  ASSERT_NE(grad, nullptr);
  EXPECT_FLOAT_EQ(grad[0], 2.0f * 1.0f / 2.0f);
  EXPECT_FLOAT_EQ(grad[1], 2.0f * 2.0f / 2.0f);
}

TEST(AdamOptimizer, ConvergesOnQuadratic) {
  // Minimise ||w - target||^2 using the Param plumbing directly.
  std::vector<float> w{5.0f, -3.0f, 8.0f};
  std::vector<float> g(3, 0.0f);
  const std::vector<float> target{1.0f, 2.0f, -1.0f};
  Adam adam({{&w, &g}}, {.lr = 0.05});
  for (int it = 0; it < 2000; ++it) {
    for (std::size_t i = 0; i < 3; ++i) g[i] = 2.0f * (w[i] - target[i]);
    adam.step();
  }
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(w[i], target[i], 1e-2);
}

TEST(AdamOptimizer, TrainsTinyCnnToFitMapping) {
  Rng rng(17);
  Sequential net;
  net.add(std::make_unique<Conv2D>(1, 4, 3, 1, true, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Conv2D>(4, 1, 3, 1, true, rng));

  // Learn a 2x blur-free scaling: y = 2x (learnable by convs).
  Tensor x = random_tensor(4, 1, 8, 8, rng, 0.5);
  Tensor y = x;
  for (auto& v : y.vec()) v *= 2.0f;

  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({4, 1, 8, 8});
  const NodeRef tgt = g.input({4, 1, 8, 8});
  g.mse_loss(net.append(g, in), tgt);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.bind(tgt, y.data());

  Adam adam(g.params(), {.lr = 2e-2});
  double first = 0, last = 0;
  for (int epoch = 0; epoch < 150; ++epoch) {
    g.zero_grad();
    exec.forward();
    exec.backward();
    adam.step();
    if (epoch == 0) first = exec.loss();
    last = exec.loss();
  }
  EXPECT_LT(last, first * 0.05);
}

TEST(AdamOptimizer, DecoupledWeightDecayShrinksWeights) {
  std::vector<float> w{10.0f, -10.0f};
  std::vector<float> g(2, 0.0f);  // zero gradient: only decay acts
  Adam adam({{&w, &g}}, {.lr = 0.1, .weight_decay = 0.1});
  for (int it = 0; it < 100; ++it) adam.step();
  EXPECT_LT(std::abs(w[0]), 10.0f);
  EXPECT_LT(std::abs(w[1]), 10.0f);
  EXPECT_GT(w[0], 0.0f);  // decay shrinks, never flips sign this fast
}

TEST(AdamOptimizer, IterationCounter) {
  std::vector<float> w{1.0f};
  std::vector<float> g{0.0f};
  Adam adam({{&w, &g}}, AdamOptions{});
  EXPECT_EQ(adam.iterations(), 0u);
  adam.step();
  adam.step();
  EXPECT_EQ(adam.iterations(), 2u);
}

TEST(Conv2DLayer, NoBiasGradientCheck) {
  Rng rng(21);
  Conv2D conv(2, 3, 3, 1, /*bias=*/false, rng);
  Graph g(Graph::Mode::kTrain);
  conv.append(g, g.input({1, 2, 5, 5}));
  EXPECT_EQ(g.params().size(), 1u);
  check_gradients(conv, random_tensor(1, 2, 5, 5, rng));
}

TEST(SequentialModel, ZeroGradClearsAllParams) {
  Rng rng(22);
  Sequential seq;
  seq.add(std::make_unique<Conv2D>(1, 2, 3, 1, true, rng));
  seq.add(std::make_unique<ChannelAttention>(2, 2, rng));

  Tensor x = random_tensor(1, 1, 6, 6, rng);
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({1, 1, 6, 6});
  const NodeRef out = seq.append(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const GShape os = g.shape(out);
  Tensor probe = random_tensor(os.n, os.c, os.h, os.w, rng);
  exec.backward_from(out, probe.vec().data());

  bool any_nonzero = false;
  for (auto& p : g.params())
    for (float v : *p.grad)
      if (v != 0.0f) any_nonzero = true;
  ASSERT_TRUE(any_nonzero);

  g.zero_grad();
  for (auto& p : g.params())
    for (float v : *p.grad) EXPECT_EQ(v, 0.0f);
}

TEST(ChannelAttentionLayer, SerializeRoundtripForwardEquality) {
  Rng rng(23);
  ChannelAttention att(4, 2, rng);
  ByteWriter w;
  att.serialize(w);
  const auto bytes = w.take();
  ByteReader r(bytes);
  auto restored = ChannelAttention::deserialize(r);

  Tensor x = random_tensor(2, 4, 5, 5, rng);
  const Tensor y1 = run_layer(att, x);
  const Tensor y2 = run_layer(*restored, x);
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_EQ(y1.vec()[i], y2.vec()[i]);
}

TEST(MseLoss, RejectsMismatchedShapes) {
  Graph g(Graph::Mode::kTrain);
  const NodeRef a = g.input({1, 1, 2, 2});
  const NodeRef b = g.input({1, 1, 2, 3});
  EXPECT_THROW(g.mse_loss(a, b), InvalidArgument);
}

TEST(Serialization, SequentialRoundtripPreservesForward) {
  Rng rng(18);
  Sequential seq;
  seq.add(std::make_unique<Conv2D>(2, 4, 3, 1, true, rng));
  seq.add(std::make_unique<ReLU>());
  seq.add(std::make_unique<ChannelAttention>(4, 2, rng));
  seq.add(std::make_unique<Conv2D>(4, 2, 1, 1, true, rng));

  const auto bytes = seq.save_bytes();
  auto restored = Sequential::load_bytes(bytes);
  EXPECT_EQ(restored->param_count(), seq.param_count());

  Tensor x = random_tensor(1, 2, 5, 5, rng);
  const Tensor y1 = run_layer(seq, x);
  const Tensor y2 = run_layer(*restored, x);
  ASSERT_EQ(y1.size(), y2.size());
  for (std::size_t i = 0; i < y1.size(); ++i)
    EXPECT_EQ(y1.vec()[i], y2.vec()[i]);  // bit-exact
}

TEST(Serialization, UnknownLayerKindThrows) {
  // "linear" was a kind once; no stored model holds one.
  for (const char* kind : {"warp_drive", "linear"}) {
    ByteWriter w;
    w.varint(1);
    w.str(kind);
    const auto bytes = w.take();
    EXPECT_THROW(Sequential::load_bytes(bytes), CorruptStream) << kind;
  }
}

TEST(Serialization, TruncatedModelThrows) {
  Rng rng(19);
  Sequential seq;
  seq.add(std::make_unique<Conv2D>(2, 4, 3, 1, true, rng));
  auto bytes = seq.save_bytes();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(Sequential::load_bytes(bytes), CorruptStream);
}

}  // namespace
}  // namespace xfc::nn
