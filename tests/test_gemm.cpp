// Cross-checks for the NN compute core: blocked SGEMM vs the naive
// reference, im2col against its index definition, the graph's conv/matmul
// ops (direct conv forward, derived backward via GraphExec::backward_from)
// against the retained naive kernels — across odd shapes, groups > 1,
// batch > 1, and k in {1,3,5} — and the direct conv forward bit for bit
// against the im2col + sgemm forward pass it replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/gemm.hpp"
#include "nn/graph.hpp"
#include "nn/im2col.hpp"
#include "nn/layers.hpp"
#include "nn/workspace.hpp"

namespace xfc::nn {
namespace {

constexpr double kRelTol = 1e-4;

void expect_near_rel(float got, float want, const char* what, std::size_t i) {
  const double tol =
      kRelTol * std::max(1.0, std::abs(static_cast<double>(want)));
  EXPECT_NEAR(got, want, tol) << what << " mismatch at flat index " << i;
}

std::vector<float> random_vec(std::size_t n, Rng& rng, double scale = 1.0) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.normal(0.0, scale));
  return v;
}

Tensor random_tensor(std::size_t n, std::size_t c, std::size_t h,
                     std::size_t w, Rng& rng) {
  Tensor t(n, c, h, w);
  for (auto& v : t.vec()) v = static_cast<float>(rng.normal());
  return t;
}

void check_sgemm(bool ta, bool tb, std::size_t m, std::size_t n,
                 std::size_t k, float alpha, float beta, Rng& rng) {
  const std::size_t lda = ta ? m : k;
  const std::size_t ldb = tb ? k : n;
  std::vector<float> a = random_vec((ta ? k : m) * lda, rng);
  std::vector<float> b = random_vec((tb ? n : k) * ldb, rng);
  std::vector<float> c0 = random_vec(m * n, rng);
  std::vector<float> c_blocked = c0, c_ref = c0;
  sgemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
        c_blocked.data(), n);
  sgemm_ref(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
            c_ref.data(), n);
  for (std::size_t i = 0; i < c_ref.size(); ++i)
    expect_near_rel(c_blocked[i], c_ref[i], "sgemm", i);
}

TEST(Sgemm, MatchesReferenceAcrossShapes) {
  Rng rng(101);
  // Odd, tiny, register-tile-straddling shapes.
  const std::size_t dims[] = {1, 2, 3, 5, 7, 8, 13, 17, 70};
  for (std::size_t m : dims)
    for (std::size_t n : dims)
      for (std::size_t k : {std::size_t{1}, std::size_t{6}, std::size_t{70}})
        check_sgemm(false, false, m, n, k, 1.0f, 0.0f, rng);
}

TEST(Sgemm, MatchesReferenceTransposed) {
  Rng rng(102);
  for (bool ta : {false, true})
    for (bool tb : {false, true})
      for (std::size_t m : {std::size_t{1}, std::size_t{9}, std::size_t{40}})
        for (std::size_t n : {std::size_t{3}, std::size_t{31}})
          check_sgemm(ta, tb, m, n, 25, 1.0f, 0.0f, rng);
}

TEST(Sgemm, AlphaBetaAccumulate) {
  Rng rng(103);
  check_sgemm(false, false, 11, 23, 17, 0.5f, 1.0f, rng);
  check_sgemm(true, false, 12, 9, 30, 2.0f, -0.5f, rng);
  check_sgemm(false, true, 7, 19, 41, 1.0f, 1.0f, rng);
}

TEST(Sgemm, BlockingBoundariesExact) {
  // Spans the KC=240 / MC=72 / NC=1024 block edges so multi-block
  // accumulation (beta0 handling) is exercised.
  Rng rng(104);
  check_sgemm(false, false, 73, 90, 250, 1.0f, 0.0f, rng);
  check_sgemm(false, false, 6, 1030, 241, 1.0f, 1.0f, rng);
}

TEST(Im2col, MatchesIndexDefinition) {
  Rng rng(105);
  for (std::size_t k : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    const std::size_t icg = 3, H = 6, W = 7;
    const Tensor x = random_tensor(1, icg, H, W, rng);
    const std::size_t pad = k / 2;
    std::vector<float> col(icg * k * k * H * W, -42.0f);
    im2col(x.data(), icg, H, W, k, col.data());
    for (std::size_t ic = 0; ic < icg; ++ic)
      for (std::size_t ky = 0; ky < k; ++ky)
        for (std::size_t kx = 0; kx < k; ++kx)
          for (std::size_t oy = 0; oy < H; ++oy)
            for (std::size_t ox = 0; ox < W; ++ox) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              const std::ptrdiff_t ix = static_cast<std::ptrdiff_t>(ox + kx) -
                                        static_cast<std::ptrdiff_t>(pad);
              const bool inside =
                  iy >= 0 && iy < static_cast<std::ptrdiff_t>(H) && ix >= 0 &&
                  ix < static_cast<std::ptrdiff_t>(W);
              const float want =
                  inside ? x(0, ic, static_cast<std::size_t>(iy),
                             static_cast<std::size_t>(ix))
                         : 0.0f;
              const std::size_t row = (ic * k + ky) * k + kx;
              EXPECT_EQ(col[row * H * W + oy * W + ox], want)
                  << "k=" << k << " row=" << row << " oy=" << oy
                  << " ox=" << ox;
            }
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), c> == <x, col2im(c)> characterises the scatter-add
  // inverse exactly (both sides are sums of the same products).
  Rng rng(106);
  const std::size_t icg = 2, H = 5, W = 6, k = 3;
  const Tensor x = random_tensor(1, icg, H, W, rng);
  const std::size_t cn = icg * k * k * H * W;
  const std::vector<float> c = random_vec(cn, rng);
  std::vector<float> col(cn);
  im2col(x.data(), icg, H, W, k, col.data());
  std::vector<float> back(icg * H * W, 0.0f);
  col2im(c.data(), icg, H, W, k, back.data());
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < cn; ++i)
    lhs += static_cast<double>(col[i]) * c[i];
  for (std::size_t i = 0; i < back.size(); ++i)
    rhs += static_cast<double>(x.vec()[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3 * std::max(1.0, std::abs(lhs)));
}

struct ConvCase {
  std::size_t batch, in_ch, out_ch, k, groups, h, w;
};

const ConvCase kConvCases[] = {
    {1, 1, 1, 3, 1, 5, 7},    // minimal, odd plane
    {2, 3, 4, 3, 1, 7, 9},    // batch > 1, standard
    {2, 4, 4, 3, 4, 6, 5},    // depthwise
    {1, 4, 6, 5, 2, 9, 7},    // grouped, k=5
    {3, 5, 3, 1, 1, 4, 11},   // pointwise, batch > 1
    {2, 6, 4, 3, 2, 8, 8},    // grouped, even plane
    {1, 2, 2, 5, 1, 5, 5},    // kernel as large as the plane
    {2, 8, 8, 3, 2, 33, 17},  // straddles GEMM register tiles
    {1, 2, 3, 5, 1, 4, 1},    // plane narrower than the padding (w <= pad)
    {1, 1, 2, 5, 1, 1, 6},    // single-row plane, wide halo
};

TEST(Conv2DGemm, ForwardMatchesNaiveReference) {
  for (const ConvCase& cc : kConvCases) {
    Rng rng(200 + cc.in_ch + cc.out_ch + cc.k);
    Conv2D conv(cc.in_ch, cc.out_ch, cc.k, cc.groups, /*bias=*/true, rng);
    Tensor x = random_tensor(cc.batch, cc.in_ch, cc.h, cc.w, rng);

    Graph g(Graph::Mode::kInfer);
    const NodeRef in = g.input({cc.batch, cc.in_ch, cc.h, cc.w});
    const NodeRef out = conv.append(g, in);
    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    exec.forward();
    const float* got = exec.value(out);

    const Tensor want = conv2d_ref_forward(x, conv.weight(),
                                           conv.bias().data(), cc.out_ch,
                                           cc.k, cc.groups);
    ASSERT_EQ(g.shape(out).size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      expect_near_rel(got[i], want.vec()[i], "conv forward", i);
  }
}

TEST(Conv2DGemm, BackwardMatchesNaiveReference) {
  for (const ConvCase& cc : kConvCases) {
    Rng rng(300 + cc.in_ch + cc.out_ch + cc.k);
    Conv2D conv(cc.in_ch, cc.out_ch, cc.k, cc.groups, /*bias=*/true, rng);
    Tensor x = random_tensor(cc.batch, cc.in_ch, cc.h, cc.w, rng);
    Tensor go = random_tensor(cc.batch, cc.out_ch, cc.h, cc.w, rng);

    Graph g(Graph::Mode::kTrain);
    const NodeRef in =
        g.input({cc.batch, cc.in_ch, cc.h, cc.w}, /*needs_grad=*/true);
    const NodeRef out = conv.append(g, in);
    GraphExec exec(g, tls_workspace());
    exec.bind(in, x.data());
    exec.forward();
    g.zero_grad();
    exec.backward_from(out, go.data());

    // Graph params in registration order: weight then bias.
    auto params = g.params();
    ASSERT_EQ(params.size(), 2u);
    const std::size_t icg = cc.in_ch / cc.groups;
    std::vector<float> gw_ref(cc.out_ch * icg * cc.k * cc.k, 0.0f);
    std::vector<float> gb_ref(cc.out_ch, 0.0f);
    const Tensor gx_ref = conv2d_ref_backward(
        x, go, conv.weight(), cc.out_ch, cc.k, cc.groups, gw_ref,
        gb_ref.data());

    const float* gx = exec.grad(in);
    ASSERT_NE(gx, nullptr);
    for (std::size_t i = 0; i < gx_ref.size(); ++i)
      expect_near_rel(gx[i], gx_ref.vec()[i], "conv dX", i);
    for (std::size_t i = 0; i < gw_ref.size(); ++i)
      expect_near_rel((*params[0].grad)[i], gw_ref[i], "conv dW", i);
    for (std::size_t i = 0; i < gb_ref.size(); ++i)
      expect_near_rel((*params[1].grad)[i], gb_ref[i], "conv dB", i);
  }
}

// --------------------------------------------- frozen conv arithmetic ----
//
// The decoder replays the encoder's CFNN bit for bit, so the direct conv
// kernel must reproduce the forward pass archives were written with: one
// im2col + sgemm per (image, group) — K = icg*k*k terms per output, summed
// in KC = 240 chunks — and then the bias in a separate pass. The reference
// below rebuilds that pass from the library's im2col and sgemm.

std::vector<float> im2col_sgemm_forward(const ConvCase& cc,
                                        const std::vector<float>& x,
                                        const std::vector<float>& w,
                                        const std::vector<float>* bias) {
  const std::size_t hw = cc.h * cc.w;
  const std::size_t icg = cc.in_ch / cc.groups;
  const std::size_t ocg = cc.out_ch / cc.groups;
  const std::size_t K = icg * cc.k * cc.k;
  std::vector<float> y(cc.batch * cc.out_ch * hw);
  std::vector<float> col(K * hw);
  for (std::size_t b = 0; b < cc.batch; ++b)
    for (std::size_t g = 0; g < cc.groups; ++g) {
      im2col(x.data() + (b * cc.in_ch + g * icg) * hw, icg, cc.h, cc.w, cc.k,
             col.data());
      sgemm(false, false, ocg, hw, K, 1.0f, w.data() + g * ocg * K, K,
            col.data(), hw, 0.0f, y.data() + (b * cc.out_ch + g * ocg) * hw,
            hw);
    }
  if (bias != nullptr)
    for (std::size_t b = 0; b < cc.batch; ++b)
      for (std::size_t oc = 0; oc < cc.out_ch; ++oc)
        for (std::size_t i = 0; i < hw; ++i)
          y[(b * cc.out_ch + oc) * hw + i] += (*bias)[oc];
  return y;
}

std::vector<float> graph_conv_forward(const ConvCase& cc, Graph::Mode mode,
                                      const std::vector<float>& x,
                                      std::vector<float>& w,
                                      std::vector<float>* bias) {
  Graph g(mode);
  const NodeRef in = g.input({cc.batch, cc.in_ch, cc.h, cc.w});
  const NodeRef wn =
      g.param(w, {cc.out_ch, cc.in_ch / cc.groups, cc.k, cc.k});
  const NodeRef bn =
      bias != nullptr ? g.param(*bias, {1, cc.out_ch, 1, 1}) : NodeRef{};
  const NodeRef out = g.conv2d(in, wn, cc.out_ch, cc.k, cc.groups, bn);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();
  const float* y = exec.value(out);
  return std::vector<float>(y, y + g.shape(out).size());
}

/// Bit patterns must match; any NaN matches any NaN.
void expect_same_bits(const std::vector<float>& got,
                      const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::isnan(got[i]) && std::isnan(want[i])) continue;
    std::uint32_t gb = 0, wb = 0;
    std::memcpy(&gb, &got[i], sizeof gb);
    std::memcpy(&wb, &want[i], sizeof wb);
    if (gb != wb && ++mismatches <= 5)
      ADD_FAILURE() << what << ": flat index " << i << " got " << got[i]
                    << " (0x" << std::hex << gb << ") want " << want[i]
                    << " (0x" << wb << std::dec << ")";
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

const ConvCase kFrozenConvCases[] = {
    {1, 24, 2, 3, 1, 9, 13},     // K = 216: the CFNN's final conv, one chunk
    {2, 240, 5, 1, 1, 3, 11},    // K = 240 exactly, pointwise, ragged block
    {1, 27, 6, 3, 1, 5, 17},     // K = 243: three terms into chunk two
    {1, 10, 3, 5, 1, 6, 9},      // K = 250 at k = 5
    {1, 40, 4, 3, 1, 4, 21},     // K = 360
    {2, 120, 3, 3, 1, 3, 10},    // K = 1080: five chunks, batch > 1
    {2, 9, 6, 3, 3, 7, 12},      // groups = 3
    {1, 10, 15, 5, 5, 6, 8},     // groups = 5, k = 5, 3 channels per group
    {3, 24, 24, 3, 24, 5, 19},   // depthwise
    {1, 4, 4, 5, 4, 2, 2},       // depthwise k = 5 on a 2x2 plane
    {2, 3, 7, 5, 1, 1, 1},       // 1x1 plane at k = 5
    {1, 2, 3, 5, 1, 4, 1},       // plane narrower than the pad
    {1, 6, 9, 1, 3, 4, 4},       // grouped pointwise
    {16, 5, 8, 3, 1, 4, 6},      // batch 16
    {1, 3, 10, 3, 1, 2, 33},     // blocks of 4, 4 and 2; ragged last tile
};

TEST(ConvDirect, BitEqualToIm2colSgemmForward) {
  for (const ConvCase& cc : kFrozenConvCases) {
    Rng rng(500 + cc.in_ch * 7 + cc.out_ch + cc.k + cc.w);
    const std::size_t nw = cc.out_ch * (cc.in_ch / cc.groups) * cc.k * cc.k;
    const std::vector<float> x =
        random_vec(cc.batch * cc.in_ch * cc.h * cc.w, rng);
    std::vector<float> w = random_vec(nw, rng, 0.3);
    std::vector<float> bias = random_vec(cc.out_ch, rng);
    for (Graph::Mode mode : {Graph::Mode::kInfer, Graph::Mode::kTrain})
      for (std::vector<float>* b : {&bias, static_cast<std::vector<float>*>(
                                               nullptr)})
        expect_same_bits(graph_conv_forward(cc, mode, x, w, b),
                         im2col_sgemm_forward(cc, x, w, b),
                         b != nullptr ? "conv + bias" : "conv");
  }
}

TEST(ConvDirect, BitEqualWithNonFiniteAndSignedZeroValues) {
  // NaN, +-Inf and -0 inputs under finite weights, then Inf and NaN weights
  // under finite inputs. A non-finite weight times a padding zero is NaN,
  // so the frame's terms must be summed like any other.
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float specials[] = {nan, inf, -inf, -0.0f};
  for (const ConvCase& cc : kFrozenConvCases) {
    Rng rng(900 + cc.in_ch * 7 + cc.out_ch + cc.k + cc.w);
    const std::size_t nx = cc.batch * cc.in_ch * cc.h * cc.w;
    const std::size_t nw = cc.out_ch * (cc.in_ch / cc.groups) * cc.k * cc.k;
    const std::vector<float> x = random_vec(nx, rng);
    std::vector<float> w = random_vec(nw, rng, 0.3);
    std::vector<float> bias = random_vec(cc.out_ch, rng);
    bias[0] = -0.0f;

    std::vector<float> xs = x;
    for (std::size_t i = rng.uniform_index(nx); i < nx;
         i += 1 + rng.uniform_index(nx / 4 + 1))
      xs[i] = specials[rng.uniform_index(4)];
    std::vector<float> ws = w;
    ws[rng.uniform_index(nw)] = inf;
    ws[rng.uniform_index(nw)] = -inf;
    ws[rng.uniform_index(nw)] = nan;

    for (std::vector<float>* b : {&bias, static_cast<std::vector<float>*>(
                                             nullptr)}) {
      expect_same_bits(graph_conv_forward(cc, Graph::Mode::kInfer, xs, w, b),
                       im2col_sgemm_forward(cc, xs, w, b),
                       "non-finite inputs");
      expect_same_bits(graph_conv_forward(cc, Graph::Mode::kInfer, x, ws, b),
                       im2col_sgemm_forward(cc, x, ws, b),
                       "non-finite weights");
    }
  }
}

TEST(ConvDirect, NegativeZeroProductsSumToPositiveZero) {
  // Every chunk starts from +0.0f, so an output whose products are all -0
  // is +0, not -0.
  const ConvCase cc{1, 3, 2, 3, 1, 4, 9};
  const std::vector<float> x(cc.in_ch * cc.h * cc.w, -0.0f);
  std::vector<float> w(cc.out_ch * cc.in_ch * cc.k * cc.k, 0.5f);
  const std::vector<float> got =
      graph_conv_forward(cc, Graph::Mode::kInfer, x, w, nullptr);
  expect_same_bits(got, im2col_sgemm_forward(cc, x, w, nullptr), "-0 conv");
  for (float v : got) EXPECT_FALSE(std::signbit(v));
}

TEST(LinearGemm, ForwardBackwardMatchNaiveReference) {
  Rng rng(400);
  const std::size_t B = 5, in_f = 13, out_f = 7;
  Linear lin(in_f, out_f, /*bias=*/true, rng);
  Tensor x = random_tensor(B, in_f, 1, 1, rng);
  Tensor go = random_tensor(B, out_f, 1, 1, rng);

  Graph g(Graph::Mode::kTrain);
  const NodeRef in = g.input({B, in_f, 1, 1}, /*needs_grad=*/true);
  const NodeRef out = lin.append(g, in);
  GraphExec exec(g, tls_workspace());
  exec.bind(in, x.data());
  exec.forward();

  const float* y = exec.value(out);
  const std::vector<float>& w = lin.weight();
  const std::vector<float>& bias = lin.bias();
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t o = 0; o < out_f; ++o) {
      double acc = bias[o];
      for (std::size_t i = 0; i < in_f; ++i)
        acc += static_cast<double>(w[o * in_f + i]) * x.vec()[b * in_f + i];
      expect_near_rel(y[b * out_f + o], static_cast<float>(acc),
                      "linear forward", b * out_f + o);
    }

  g.zero_grad();
  exec.backward_from(out, go.data());
  auto params = g.params();
  ASSERT_EQ(params.size(), 2u);
  const float* gx = exec.grad(in);
  ASSERT_NE(gx, nullptr);
  for (std::size_t b = 0; b < B; ++b)
    for (std::size_t i = 0; i < in_f; ++i) {
      double acc = 0.0;
      for (std::size_t o = 0; o < out_f; ++o)
        acc += static_cast<double>(go.vec()[b * out_f + o]) * w[o * in_f + i];
      expect_near_rel(gx[b * in_f + i], static_cast<float>(acc), "linear dX",
                      b * in_f + i);
    }
  for (std::size_t o = 0; o < out_f; ++o) {
    for (std::size_t i = 0; i < in_f; ++i) {
      double acc = 0.0;
      for (std::size_t b = 0; b < B; ++b)
        acc += static_cast<double>(go.vec()[b * out_f + o]) *
               x.vec()[b * in_f + i];
      expect_near_rel((*params[0].grad)[o * in_f + i],
                      static_cast<float>(acc), "linear dW", o * in_f + i);
    }
    double gb = 0.0;
    for (std::size_t b = 0; b < B; ++b) gb += go.vec()[b * out_f + o];
    expect_near_rel((*params[1].grad)[o], static_cast<float>(gb), "linear dB",
                    o);
  }
}

TEST(WorkspaceArena, ReusesSlabsAcrossScopes) {
  Workspace ws;
  float* first = nullptr;
  {
    const ScratchScope scope(ws);
    first = ws.acquire(1024);
    ASSERT_NE(first, nullptr);
  }
  {
    const ScratchScope scope(ws);
    // Same acquire order, same (not-reallocated) slab.
    EXPECT_EQ(ws.acquire(1024), first);
    // Nested scope stacks on top instead of clobbering.
    float* inner_before;
    {
      const ScratchScope inner(ws);
      inner_before = ws.acquire(16);
      EXPECT_NE(inner_before, first);
    }
    {
      const ScratchScope inner(ws);
      EXPECT_EQ(ws.acquire(16), inner_before);
    }
  }
  EXPECT_GE(ws.floats_reserved(), 1024u + 16u);
  ws.clear();
  EXPECT_EQ(ws.floats_reserved(), 0u);
}

TEST(WorkspaceArena, GrowsSlabWhenAskedForMore) {
  Workspace ws;
  const ScratchScope scope(ws);
  ws.acquire(8);
  ws.rewind(0);
  float* q = ws.acquire(4096);  // same slot, grown
  // After growth the slab must hold 4096 writable floats.
  for (std::size_t i = 0; i < 4096; ++i) q[i] = 1.0f;
  EXPECT_GE(ws.floats_reserved(), 4096u);
}

TEST(WorkspaceArena, TypedAcquiresShareTheSlabSequence) {
  // The decode paths take bytes and int64 scratch from the same arena the
  // NN path takes floats from; acquire order, not element type, names the
  // slab.
  Workspace ws;
  std::uint8_t* bytes = nullptr;
  std::int64_t* words = nullptr;
  {
    const ScratchScope scope(ws);
    bytes = ws.acquire_bytes(1000);
    words = ws.acquire_as<std::int64_t>(100);
    ASSERT_NE(bytes, nullptr);
    ASSERT_NE(words, nullptr);
    for (std::size_t i = 0; i < 1000; ++i) bytes[i] = 0xAB;
    for (std::size_t i = 0; i < 100; ++i) words[i] = -7;
  }
  {
    const ScratchScope scope(ws);
    // Same acquire order, same slabs — even at different types.
    EXPECT_EQ(ws.acquire_as<float>(250),
              reinterpret_cast<float*>(bytes));
    EXPECT_EQ(ws.acquire_bytes(800), reinterpret_cast<std::uint8_t*>(words));
  }
  EXPECT_GE(ws.bytes_reserved(), 1000u + 100 * sizeof(std::int64_t));
}

}  // namespace
}  // namespace xfc::nn
