// Tests for the tape-based autodiff core (nn/graph.hpp + nn/autodiff.hpp):
// CheckGrad over every op at awkward shapes, forward equality against the
// naive reference kernels, train-vs-infer bit equality, arena zero-alloc
// steady state, and XFC_THREADS-invariance of a full training trajectory
// (proved in a subprocess, since the pool reads XFC_THREADS once).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cfnn/cfnn.hpp"
#include "conv_ref.hpp"
#include "cfnn/trainer.hpp"
#include "core/rng.hpp"
#include "nn/attention.hpp"
#include "nn/autodiff.hpp"
#include "nn/conv2d.hpp"
#include "nn/graph.hpp"
#include "nn/layers.hpp"
#include "nn/sequential.hpp"

namespace xfc::nn {
namespace {

Tensor random_tensor(std::size_t n, std::size_t c, std::size_t h,
                     std::size_t w, Rng& rng, double scale = 1.0) {
  Tensor t(n, c, h, w);
  for (auto& v : t.vec()) v = static_cast<float>(rng.normal(0.0, scale));
  return t;
}

/// Builds a kTrain graph `pred = build(g, in, rng, keep, m)` with an MSE
/// root against a random target and runs check_grad on it. `keep` and `m`
/// give the builder parameter storage that outlives the graph and exec.
template <typename BuildFn>
CheckGradResult check_op(const GShape& in_shape, std::uint64_t seed,
                         const CheckGradOptions& opts, BuildFn&& build) {
  Model m;
  std::vector<std::unique_ptr<Layer>> keep;
  Rng rng(seed);
  Tensor x = random_tensor(in_shape.n, in_shape.c, in_shape.h, in_shape.w,
                           rng);
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input(in_shape);
  const NodeRef pred = build(g, in, rng, keep, m);
  const GShape os = g.shape(pred);
  Tensor target = random_tensor(os.n, os.c, os.h, os.w, rng);
  const NodeRef tgt = g.input(os);
  g.mse_loss(pred, tgt);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.bind(tgt, target.data());
  const CheckGradResult r = check_grad(g, exec, opts);
  EXPECT_TRUE(r.ok) << "max rel err " << r.max_rel_err << " at param "
                    << r.worst_param << "[" << r.worst_elem << "]: analytic "
                    << r.worst_analytic << " vs fd " << r.worst_numeric;
  EXPECT_GT(r.checked, 0u);
  return r;
}

std::vector<float>& random_param(Model& m, const char* name, std::size_t n,
                                 Rng& rng, double scale = 1.0) {
  auto& v = m.add(name, n);
  for (auto& e : v) e = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

TEST(CheckGrad, BiasAddStandalone) {
  check_op({2, 3, 4, 5}, 0xA4, {},
           [](Graph& g, NodeRef in, Rng& rng, auto&, Model& m) {
             auto& b = random_param(m, "b", 3, rng);
             return g.bias_add(in, g.param(b, {1, 3, 1, 1}));
           });
}

TEST(CheckGrad, ReLUOnParam) {
  // ReLU directly over a trainable tensor: the masked gradient path.
  check_op({1, 1, 1, 1}, 0xA5, {},
           [](Graph& g, NodeRef, Rng& rng, auto&, Model& m) {
             auto& p = random_param(m, "p", 2 * 3 * 4 * 5, rng);
             return g.relu(g.param(p, {2, 3, 4, 5}));
           });
}

TEST(CheckGrad, Conv2DKernel3) {
  check_op({2, 3, 5, 6}, 0xB1, {},
           [](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
             keep.push_back(std::make_unique<Conv2D>(3, 4, 3, 1, true, rng));
             return keep.back()->append(g, in);
           });
}

TEST(CheckGrad, Conv2DKernel5And7) {
  // Graph::conv2d takes any odd kernel, and CfnnConfig.kernel is stored in
  // model bytes, so the kernels must not be capped at the CFNN's sizes.
  for (const std::size_t k : {std::size_t{5}, std::size_t{7}})
    check_op({2, 2, 7, 6}, 0xB2, {},
             [k](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
               keep.push_back(
                   std::make_unique<Conv2D>(2, 3, k, 1, true, rng));
               return keep.back()->append(g, in);
             });
}

TEST(CheckGrad, Conv2DGroupedBatched) {
  check_op({3, 6, 5, 7}, 0xB3, {},
           [](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
             keep.push_back(std::make_unique<Conv2D>(6, 4, 3, 2, true, rng));
             return keep.back()->append(g, in);
           });
}

TEST(CheckGrad, Conv2DDepthwise) {
  check_op({2, 4, 5, 5}, 0xB4, {},
           [](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
             keep.push_back(std::make_unique<Conv2D>(4, 4, 3, 4, true, rng));
             return keep.back()->append(g, in);
           });
}

TEST(CheckGrad, Conv2DOnePixelPlanes) {
  // 1x1 spatial planes with k=3: the entire receptive field is padding
  // except the centre tap, so every other tap's gradient span is empty.
  check_op({2, 3, 1, 1}, 0xB5, {},
           [](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
             keep.push_back(std::make_unique<Conv2D>(3, 2, 3, 1, true, rng));
             return keep.back()->append(g, in);
           });
}

TEST(CheckGrad, Conv2DInputWithTwoConsumers) {
  // h feeds a conv and a ReLU. The ReLU comes later on the tape, so it
  // back-propagates first and writes dL/dh; the conv's data gradient must
  // then add to it, not overwrite it, at every kernel size. The first
  // conv's bias keeps h well above zero, so no finite-difference step
  // crosses the ReLU's kink.
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    Rng rng(0xB6);
    Conv2D first(3, 4, 3, 1, true, rng);
    Conv2D second(4, 4, k, 1, true, rng);
    std::fill(first.bias().begin(), first.bias().end(), 4.0f);
    Tensor x = random_tensor(2, 3, 5, 6, rng);
    Graph g(Graph::Mode::kTrain);
    const NodeRef in = g.input({2, 3, 5, 6});
    const NodeRef h = first.append(g, in);
    const NodeRef pred = second.append(g, h);
    const NodeRef target = g.relu(h);
    g.mse_loss(pred, target);
    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    const CheckGradResult r = check_grad(g, exec, {});
    EXPECT_TRUE(r.ok) << "k=" << k << ": max rel err " << r.max_rel_err
                      << " at param " << r.worst_param << "["
                      << r.worst_elem << "]: analytic " << r.worst_analytic
                      << " vs fd " << r.worst_numeric;
  }
}

TEST(CheckGrad, ChannelAttention) {
  check_op({2, 4, 5, 5}, 0xC1, {.tol = 2e-3},
           [](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
             keep.push_back(std::make_unique<ChannelAttention>(4, 2, rng));
             return keep.back()->append(g, in);
           });
}

TEST(CheckGrad, ChannelAttentionSingleChannel) {
  // c = 1, reduction = 1: mid = 1, the degenerate attention head.
  check_op({2, 1, 3, 4}, 0xC2, {.tol = 2e-3},
           [](Graph& g, NodeRef in, Rng& rng, auto& keep, Model&) {
             keep.push_back(std::make_unique<ChannelAttention>(1, 1, rng));
             return keep.back()->append(g, in);
           });
}

TEST(CheckGrad, FullCfnnGraph) {
  // The complete CFNN stack (conv -> relu -> separable -> attention ->
  // conv) through one check_grad call — the "universal test" a new
  // predictor gets for free.
  Rng rng(0xD1);
  Sequential net;
  net.add(std::make_unique<Conv2D>(3, 8, 3, 1, true, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Conv2D>(8, 8, 3, 8, true, rng));
  net.add(std::make_unique<Conv2D>(8, 8, 1, 1, true, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<ChannelAttention>(8, 4, rng));
  net.add(std::make_unique<Conv2D>(8, 2, 3, 1, true, rng));

  Tensor x = random_tensor(2, 3, 8, 8, rng, 0.5);
  Tensor t = random_tensor(2, 2, 8, 8, rng, 0.5);
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({2, 3, 8, 8});
  const NodeRef tgt = g.input({2, 2, 8, 8});
  g.mse_loss(net.append(g, in), tgt);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.bind(tgt, t.data());

  // Smaller step than the per-op default: through seven layers a 1e-2
  // parameter nudge crosses ReLU kinks and max-pool argmax flips, which
  // breaks the central-difference estimate (not the analytic gradient).
  const CheckGradResult r = check_grad(g, exec, {.eps = 1e-3});
  EXPECT_TRUE(r.ok) << "max rel err " << r.max_rel_err << " at param "
                    << r.worst_param << "[" << r.worst_elem << "]: analytic "
                    << r.worst_analytic << " vs fd " << r.worst_numeric;
  EXPECT_LE(r.max_rel_err, 1e-3);
}

TEST(CheckGrad, ModelRecipe) {
  // The graph-first path with no Layer shims at all: Model owns named
  // parameters, the graph is built inline (two 1x1 convs on 1x1 planes,
  // i.e. fully connected layers), one check_grad verifies it.
  Rng rng(0xD2);
  Model m;
  auto& w1 = m.add_xavier("fc1.w", 4 * 6, 6, 4, rng);
  auto& b1 = m.add("fc1.b", 4);
  auto& w2 = m.add_xavier("fc2.w", 2 * 4, 4, 2, rng);

  Tensor x = random_tensor(3, 6, 1, 1, rng);
  Tensor t = random_tensor(3, 2, 1, 1, rng);
  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({3, 6, 1, 1});
  NodeRef h = g.conv2d(in, g.param(w1, {4, 6, 1, 1}), 4, 1, 1,
                       g.param(b1, {1, 4, 1, 1}));
  h = g.relu(h);
  h = g.conv2d(h, g.param(w2, {2, 4, 1, 1}), 2, 1, 1);
  const NodeRef tgt = g.input({3, 2, 1, 1});
  g.mse_loss(h, tgt);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.bind(tgt, t.data());

  const CheckGradResult r = check_grad(m, g, exec);
  EXPECT_TRUE(r.ok) << "worst offender " << m.name(r.worst_param) << "["
                    << r.worst_elem << "]";
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(g.params().size(), 3u);
}

TEST(Graph, SharedParamRegistersOnce) {
  std::vector<float> w(3 * 5, 0.5f);
  Graph g(Graph::Mode::kTrain);
  const NodeRef a = g.param(w, {3, 5, 1, 1});
  const NodeRef b = g.param(w, {3, 5, 1, 1});
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(g.params().size(), 1u);
}

TEST(GraphForward, ConvMatchesNaiveReference) {
  Rng rng(0xE1);
  // Geometry sweep mirroring test_conv's table, incl. groups and k=5.
  struct Case {
    std::size_t n, in_ch, out_ch, k, groups, h, w;
  };
  const Case cases[] = {
      {1, 1, 1, 3, 1, 5, 7},  {2, 3, 4, 3, 1, 7, 9},  {2, 4, 4, 3, 4, 6, 5},
      {1, 4, 6, 5, 2, 9, 7},  {3, 5, 3, 1, 1, 4, 11}, {1, 2, 3, 5, 1, 4, 1},
  };
  for (const Case& c : cases) {
    Conv2D conv(c.in_ch, c.out_ch, c.k, c.groups, true, rng);
    Tensor x = random_tensor(c.n, c.in_ch, c.h, c.w, rng);
    const Tensor ref = conv2d_ref_forward(x, conv.weight(),
                                          conv.bias().data(), c.out_ch, c.k,
                                          c.groups);

    Graph g(Graph::Mode::kInfer);
    const NodeRef in = g.input({c.n, c.in_ch, c.h, c.w});
    const NodeRef out = conv.append(g, in);
    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    exec.forward();
    const float* y = exec.value(out);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const double denom =
          std::max(1.0, std::abs(static_cast<double>(ref.vec()[i])));
      EXPECT_NEAR(y[i], ref.vec()[i], 1e-4 * denom)
          << "case k=" << c.k << " g=" << c.groups << " elem " << i;
    }
  }
}

TEST(GraphForward, AttentionMatchesNaiveReference) {
  Rng rng(0xE2);
  const std::size_t B = 2, C = 4, R = 2, H = 5, W = 6, mid = C / R;
  ChannelAttention att(C, R, rng);
  Tensor x = random_tensor(B, C, H, W, rng);

  Graph g(Graph::Mode::kInfer);
  const NodeRef in = g.input({B, C, H, W});
  const NodeRef out = att.append(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const float* y = exec.value(out);

  // Straight-line reference: per-plane avg/max pool, shared MLP on both
  // descriptors, sigmoid of the sum, rescale.
  auto mlp = [&](const std::vector<double>& v, std::size_t b,
                 std::size_t c) {
    double out_c = att.b2()[c];
    for (std::size_t m = 0; m < mid; ++m) {
      double h1 = att.b1()[m];
      for (std::size_t i = 0; i < C; ++i)
        h1 += static_cast<double>(att.w1()[m * C + i]) * v[b * C + i];
      h1 = std::max(0.0, h1);
      out_c += static_cast<double>(att.w2()[c * mid + m]) * h1;
    }
    return out_c;
  };
  std::vector<double> avg(B * C), mx(B * C);
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t c = 0; c < C; ++c) {
      const float* p = x.plane(b, c);
      double s = 0.0, m = p[0];
      for (std::size_t i = 0; i < H * W; ++i) {
        s += p[i];
        m = std::max(m, static_cast<double>(p[i]));
      }
      avg[b * C + c] = s / static_cast<double>(H * W);
      mx[b * C + c] = m;
    }
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t c = 0; c < C; ++c) {
      const double z = mlp(avg, b, c) + mlp(mx, b, c);
      const double scale = 1.0 / (1.0 + std::exp(-z));
      const float* xp = x.plane(b, c);
      const float* yp = y + (b * C + c) * H * W;
      for (std::size_t i = 0; i < H * W; ++i)
        EXPECT_NEAR(yp[i], xp[i] * scale, 1e-4)
            << "b=" << b << " c=" << c << " i=" << i;
    }
}

TEST(GraphForward, TrainAndInferModesBitEqual) {
  // Half the frozen-inference contract: whichever mode runs the kernels,
  // the arithmetic is identical — buffer recycling in kInfer must not
  // change a single bit of the output.
  Rng rng(0xE3);
  Sequential net;
  net.add(std::make_unique<Conv2D>(2, 6, 3, 1, true, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<Conv2D>(6, 6, 3, 6, true, rng));
  net.add(std::make_unique<Conv2D>(6, 6, 1, 1, true, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<ChannelAttention>(6, 2, rng));
  net.add(std::make_unique<Conv2D>(6, 1, 3, 1, true, rng));
  Tensor x = random_tensor(2, 2, 9, 7, rng);

  auto run = [&](Graph::Mode mode) {
    Graph g(mode);
    const NodeRef in = g.input({2, 2, 9, 7});
    const NodeRef out = net.append(g, in);
    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    exec.forward();
    const float* y = exec.value(out);
    return std::vector<float>(y, y + g.shape(out).size());
  };
  const auto yi = run(Graph::Mode::kInfer);
  const auto yt = run(Graph::Mode::kTrain);
  ASSERT_EQ(yi.size(), yt.size());
  EXPECT_EQ(std::memcmp(yi.data(), yt.data(), yi.size() * sizeof(float)), 0);
}

TEST(GraphExecArena, SteadyStateTrainingReservesNothing) {
  // After construction + one warmup iteration, repeated forward/backward
  // must not grow the exec's arena: activations, gradients and the
  // backward kernels' caller-side scratch were all acquired by then. A
  // private (non-tls) workspace measures the exec's own acquires only; the
  // conv kernels take their framing scratch from the calling thread's tls
  // arena.
  Rng rng(0xF1);
  Sequential net;
  net.add(std::make_unique<Conv2D>(3, 8, 3, 1, true, rng));
  net.add(std::make_unique<ReLU>());
  net.add(std::make_unique<ChannelAttention>(8, 4, rng));
  net.add(std::make_unique<Conv2D>(8, 2, 3, 1, true, rng));
  Tensor x = random_tensor(4, 3, 16, 16, rng);
  Tensor t = random_tensor(4, 2, 16, 16, rng);

  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({4, 3, 16, 16});
  const NodeRef tgt = g.input({4, 2, 16, 16});
  g.mse_loss(net.append(g, in), tgt);
  Workspace ws;
  GraphExec exec(g, ws);
  exec.bind(in, x.data());
  exec.bind(tgt, t.data());

  g.zero_grad();
  exec.forward();
  exec.backward();
  const std::size_t reserved = ws.bytes_reserved();
  for (int it = 0; it < 5; ++it) {
    g.zero_grad();
    exec.forward();
    exec.backward();
  }
  EXPECT_EQ(ws.bytes_reserved(), reserved);
}

TEST(GraphExecConcurrency, SharedModelInferenceIsBitStable) {
  // Many threads running inference against one shared const model (each
  // with a private Graph + GraphExec on its own tls arena) must all produce
  // exactly the serial answer. The tsan preset polices the data-race half
  // of this contract.
  Rng rng(0xF2);
  const CfnnModel model(3, 2, CfnnConfig{8, 4, 3}, 77);
  Tensor x = random_tensor(2, 3, 24, 24, rng);
  const Tensor expect = model.infer(x);

  std::vector<std::vector<float>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t ti = 0; ti < results.size(); ++ti)
    threads.emplace_back([&, ti] {
      for (int rep = 0; rep < 3; ++rep) {
        const Tensor y = model.infer(x);
        results[ti] = y.vec();
      }
    });
  for (auto& th : threads) th.join();
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), expect.size());
    EXPECT_EQ(
        std::memcmp(r.data(), expect.vec().data(), r.size() * sizeof(float)),
        0);
  }
}

// ---------------------------------------------------------------------------
// Thread-count determinism of a full training run. The pool reads
// XFC_THREADS once per process, so the 1-vs-4 comparison re-executes this
// binary as a subprocess: the Child test below trains a small CFNN and
// (when XFC_AUTODIFF_PRINT is set) prints the exact loss trajectory in hex.

std::vector<double> tiny_training_run() {
  Rng rng(0x7EA);
  Tensor inputs(2, 3, 40, 40), targets(2, 2, 40, 40);
  for (auto& v : inputs.vec()) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < targets.size(); ++i)
    targets.vec()[i] = 0.5f * inputs.vec()[i % inputs.size()] +
                       static_cast<float>(rng.normal(0.0, 0.05));
  CfnnModel model(3, 2, CfnnConfig{8, 4, 3}, 42);
  CfnnTrainOptions opt;
  opt.epochs = 3;
  opt.patches_per_epoch = 32;
  opt.patch = 16;
  opt.batch = 8;
  return train_cfnn(model, inputs, targets, opt);
}

TEST(AutodiffDeterminism, ChildTrajectory) {
  const auto losses = tiny_training_run();
  ASSERT_EQ(losses.size(), 3u);
  for (const double l : losses) EXPECT_TRUE(std::isfinite(l));
  if (std::getenv("XFC_AUTODIFF_PRINT") != nullptr)
    for (const double l : losses) std::printf("TRAJ %a\n", l);
}

std::vector<std::string> run_child_trajectory(int threads) {
  // Resolve our own binary here: /proc/self/exe inside the popen'd shell
  // would name the shell, not this test.
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) return {};
  exe[len] = '\0';
  const std::string cmd =
      "XFC_AUTODIFF_PRINT=1 XFC_THREADS=" + std::to_string(threads) + " '" +
      exe + "' --gtest_filter=AutodiffDeterminism.ChildTrajectory"
      " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return {};
  std::vector<std::string> traj;
  char line[256];
  while (std::fgets(line, sizeof line, pipe) != nullptr)
    if (std::strncmp(line, "TRAJ ", 5) == 0) traj.emplace_back(line + 5);
  const int rc = pclose(pipe);
  if (rc != 0) return {};
  return traj;
}

TEST(AutodiffDeterminism, LossTrajectoryIsThreadCountInvariant) {
  const auto t1 = run_child_trajectory(1);
  const auto t4 = run_child_trajectory(4);
  ASSERT_EQ(t1.size(), 3u) << "child run with XFC_THREADS=1 failed";
  ASSERT_EQ(t4.size(), 3u) << "child run with XFC_THREADS=4 failed";
  EXPECT_EQ(t1, t4);  // exact hex-printed doubles: bitwise identical
}

}  // namespace
}  // namespace xfc::nn
