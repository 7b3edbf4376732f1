// Cross-checks for the graph's direct conv kernels: forward and derived
// backward (GraphExec::backward_from) against the naive reference kernels
// across odd shapes, groups > 1, batch > 1 and k in {1, 3, 5, 7}; the
// forward pass bit for bit against a plain loop in the frozen summation
// order; and the Workspace arena they run on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "conv_ref.hpp"
#include "core/rng.hpp"
#include "nn/conv2d.hpp"
#include "nn/graph.hpp"
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
    {2, 8, 8, 3, 2, 33, 17},  // straddles the 8-pixel register tiles
    {1, 2, 3, 5, 1, 4, 1},    // plane narrower than the padding (w <= pad)
    {1, 1, 2, 5, 1, 1, 6},    // single-row plane, wide halo
    {2, 2, 5, 3, 1, 6, 13},   // channel blocks of 4 and 1; 8-, 4-, 1-wide rows
    {1, 3, 2, 7, 1, 9, 10},   // k = 7
};

TEST(Conv2DGraph, ForwardMatchesNaiveReference) {
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

TEST(Conv2DGraph, BackwardMatchesNaiveReference) {
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
// kernel must keep the summation order archives were written with. The
// reference below is that order as a plain loop, one output at a time:
// terms k = (ic, ky, kx) ascending, padding terms computed; chunks of 240
// terms, each summed from 0.0f; C = acc_0, then C = acc_i + C; the bias
// added last.

std::vector<float> frozen_order_forward(const ConvCase& cc,
                                        const std::vector<float>& x,
                                        const std::vector<float>& w,
                                        const std::vector<float>* bias) {
  constexpr std::size_t kChunk = 240;
  const std::size_t hw = cc.h * cc.w;
  const std::size_t icg = cc.in_ch / cc.groups;
  const std::size_t ocg = cc.out_ch / cc.groups;
  const std::size_t k2 = cc.k * cc.k;
  const std::size_t K = icg * k2;
  const auto H = static_cast<std::ptrdiff_t>(cc.h);
  const auto W = static_cast<std::ptrdiff_t>(cc.w);
  const auto pad = static_cast<std::ptrdiff_t>(cc.k / 2);
  std::vector<float> y(cc.batch * cc.out_ch * hw);
  for (std::size_t b = 0; b < cc.batch; ++b)
    for (std::size_t oc = 0; oc < cc.out_ch; ++oc) {
      const float* xg = x.data() + (b * cc.in_ch + oc / ocg * icg) * hw;
      const float* wo = w.data() + oc * K;
      float* yo = y.data() + (b * cc.out_ch + oc) * hw;
      for (std::ptrdiff_t oy = 0; oy < H; ++oy)
        for (std::ptrdiff_t ox = 0; ox < W; ++ox) {
          float c = 0.0f;
          for (std::size_t p0 = 0; p0 < K; p0 += kChunk) {
            float acc = 0.0f;
            for (std::size_t p = p0; p < std::min(K, p0 + kChunk); ++p) {
              const std::size_t ic = p / k2;
              const auto ky = static_cast<std::ptrdiff_t>(p % k2 / cc.k);
              const auto kx = static_cast<std::ptrdiff_t>(p % cc.k);
              const std::ptrdiff_t iy = oy + ky - pad;
              const std::ptrdiff_t ix = ox + kx - pad;
              const bool inside = iy >= 0 && iy < H && ix >= 0 && ix < W;
              const float xv = inside ? (xg + ic * hw)[iy * W + ix] : 0.0f;
              acc += wo[p] * xv;
            }
            c = p0 == 0 ? acc : acc + c;
          }
          if (bias != nullptr) c += (*bias)[oc];
          yo[oy * W + ox] = c;
        }
    }
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

TEST(ConvDirect, BitEqualToFrozenOrderLoop) {
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
                         frozen_order_forward(cc, x, w, b),
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
                       frozen_order_forward(cc, xs, w, b),
                       "non-finite inputs");
      expect_same_bits(graph_conv_forward(cc, Graph::Mode::kInfer, x, ws, b),
                       frozen_order_forward(cc, x, ws, b),
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
  expect_same_bits(got, frozen_order_forward(cc, x, w, nullptr), "-0 conv");
  for (float v : got) EXPECT_FALSE(std::signbit(v));
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
