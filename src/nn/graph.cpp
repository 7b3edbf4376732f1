#include "nn/graph.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/utils.hpp"

namespace xfc::nn {

namespace detail {
bool g_perturb_attention_pool_for_tests = false;
}  // namespace detail

// ------------------------------------------------------------ builders ----

NodeRef Graph::push(Node n) {
  nodes_.push_back(n);
  return NodeRef{static_cast<std::int32_t>(nodes_.size() - 1)};
}

NodeRef Graph::input(GShape shape, bool needs_grad) {
  expects(shape.size() > 0, "Graph::input: empty shape");
  expects(!needs_grad || mode_ == Mode::kTrain,
          "Graph::input: needs_grad requires train mode");
  Node n;
  n.op = Op::kInput;
  n.shape = shape;
  n.needs_grad = needs_grad;
  return push(n);
}

NodeRef Graph::param(std::vector<float>& values, GShape shape) {
  expects(values.size() == shape.size(),
          "Graph::param: value count does not match shape");
  for (std::size_t i = 0; i < param_values_.size(); ++i)
    if (param_values_[i] == &values)
      for (std::size_t j = 0; j < nodes_.size(); ++j)
        if (nodes_[j].param_idx == static_cast<std::int32_t>(i))
          return NodeRef{static_cast<std::int32_t>(j)};
  Node n;
  n.op = Op::kParam;
  n.shape = shape;
  n.needs_grad = mode_ == Mode::kTrain;
  n.value = &values;
  n.param_idx = static_cast<std::int32_t>(param_values_.size());
  param_values_.push_back(&values);
  param_grads_.emplace_back(values.size(), 0.0f);
  return push(n);
}

NodeRef Graph::conv2d(NodeRef x, NodeRef w, std::size_t out_channels,
                      std::size_t kernel, std::size_t groups, NodeRef bias) {
  const Node& xn = at(x);
  const Node& wn = at(w);
  expects(out_channels > 0 && kernel % 2 == 1 && kernel >= 1,
          "Graph::conv2d: kernel must be odd");
  expects(groups >= 1 && xn.shape.c % groups == 0 &&
              out_channels % groups == 0,
          "Graph::conv2d: channels must divide groups");
  const std::size_t icg = xn.shape.c / groups;
  expects(wn.shape.size() == out_channels * icg * kernel * kernel,
          "Graph::conv2d: weight size mismatch");
  Node n;
  n.op = Op::kConv2D;
  n.shape = {xn.shape.n, out_channels, xn.shape.h, xn.shape.w};
  n.in[0] = x.id;
  n.in[1] = w.id;
  n.a0 = kernel;
  n.a1 = groups;
  n.needs_grad = xn.needs_grad || wn.needs_grad;
  if (bias.valid()) {
    const Node& bn = at(bias);
    expects(bn.shape.size() == out_channels,
            "Graph::conv2d: bias size mismatch");
    n.in[2] = bias.id;
    n.needs_grad = n.needs_grad || bn.needs_grad;
  }
  return push(n);
}

NodeRef Graph::bias_add(NodeRef x, NodeRef b) {
  const Node& xn = at(x);
  const Node& bn = at(b);
  expects(bn.shape.size() == xn.shape.c, "Graph::bias_add: bias size mismatch");
  Node n;
  n.op = Op::kBiasAdd;
  n.shape = xn.shape;
  n.in[0] = x.id;
  n.in[1] = b.id;
  n.needs_grad = xn.needs_grad || bn.needs_grad;
  return push(n);
}

NodeRef Graph::relu(NodeRef x) {
  const Node& xn = at(x);
  Node n;
  n.op = Op::kReLU;
  n.shape = xn.shape;
  n.in[0] = x.id;
  n.needs_grad = xn.needs_grad;
  return push(n);
}

NodeRef Graph::channel_attention(NodeRef x, NodeRef w1, NodeRef b1, NodeRef w2,
                                 NodeRef b2, std::size_t reduction) {
  const Node& xn = at(x);
  const std::size_t c = xn.shape.c;
  expects(c > 0 && reduction > 0 && c % reduction == 0,
          "Graph::channel_attention: channels must be divisible by reduction");
  const std::size_t mid = c / reduction;
  expects(at(w1).shape.size() == mid * c && at(b1).shape.size() == mid &&
              at(w2).shape.size() == c * mid && at(b2).shape.size() == c,
          "Graph::channel_attention: MLP parameter size mismatch");
  Node n;
  n.op = Op::kChannelAttention;
  n.shape = xn.shape;
  n.in[0] = x.id;
  n.in[1] = w1.id;
  n.in[2] = b1.id;
  n.in[3] = w2.id;
  n.in[4] = b2.id;
  n.a0 = reduction;
  n.needs_grad = xn.needs_grad || at(w1).needs_grad || at(b1).needs_grad ||
                 at(w2).needs_grad || at(b2).needs_grad;
  n.aux_floats = detail::AttnAux::floats(xn.shape.n, c, mid);
  n.aux_ints = detail::AttnAux::ints(xn.shape.n, c);
  return push(n);
}

NodeRef Graph::mse_loss(NodeRef pred, NodeRef target) {
  const Node& pn = at(pred);
  const Node& tn = at(target);
  expects(pn.shape == tn.shape, "Graph::mse_loss: shape mismatch");
  expects(pn.shape.size() > 0, "Graph::mse_loss: empty tensors");
  Node n;
  n.op = Op::kMseLoss;
  n.shape = {1, 1, 1, 1};
  n.in[0] = pred.id;
  n.in[1] = target.id;
  n.needs_grad = pn.needs_grad || tn.needs_grad;
  return push(n);
}

NodeRef Graph::root() const {
  expects(!nodes_.empty(), "Graph::root: empty graph");
  return NodeRef{static_cast<std::int32_t>(nodes_.size() - 1)};
}

std::vector<Param> Graph::params() {
  std::vector<Param> out;
  out.reserve(param_values_.size());
  for (std::size_t i = 0; i < param_values_.size(); ++i)
    out.push_back({param_values_[i], &param_grads_[i]});
  return out;
}

void Graph::zero_grad() {
  for (auto& g : param_grads_) std::fill(g.begin(), g.end(), 0.0f);
}

std::size_t Graph::param_count() const {
  std::size_t n = 0;
  for (const auto* v : param_values_) n += v->size();
  return n;
}

// ----------------------------------------------------- forward kernels ----
//
// Every kernel here keeps the float op order of the pre-graph layer kernels
// — the inference arithmetic is frozen, see the file comment in graph.hpp.
// Each output value is summed by one thread in one order, so the schedule
// (tasks, threads, SIMD lanes) is free and the results are not.

namespace detail {

// Convolution's frozen summation order. Output (oc, oy, ox) sums the terms
// w[oc][k] * x_padded[ic][oy + ky][ox + kx] over k = (ic, ky, kx)
// ascending, zero-padding terms included: an Inf or NaN weight times a
// padding zero is NaN, so skipping them would change bits. The terms go in
// chunks of kConvChunk, each summed from 0.0f; C = acc_0, then
// C = acc_i + C; the bias is added last. This is the order the blocked
// im2col + sgemm forward (KC = 240, bias in a second pass) produced, and
// archives written with it must decode.
constexpr std::size_t kConvChunk = 240;

// Register tile: up to kConvBlock output channels x kConvTile pixels of one
// row, as kConvVecs vectors of four lanes per channel. Arithmetic on the
// vector type compiles to one SIMD instruction per lane group on every
// target, without relying on the auto-vectorizer; -ffp-contract=off keeps
// each multiply and add a separate rounding.
using F32x4 = float __attribute__((vector_size(16)));
constexpr std::size_t kConvLanes = 4;
constexpr std::size_t kConvVecs = 2;
constexpr std::size_t kConvTile = kConvLanes * kConvVecs;
constexpr std::size_t kConvBlock = 4;

inline F32x4 load4(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline void store4(float* p, F32x4 v) { std::memcpy(p, &v, sizeof v); }

/// Direct convolution of output rows [oy0, oy1) for ROWS consecutive output
/// channels, in the frozen order above.
/// - `xp`: the group's first input plane, zero-framed (pad = k/2 on every
///   side) with row stride `stride`; planes follow each other contiguously.
/// - `off[k]`: offset of term k's input relative to the output pixel, i.e.
///   ic * plane + ky * stride + kx.
/// - `wb`: the block's weights, each broadcast to four lanes,
///   [term][channel][lane].
/// - `y`: output plane of the block's first channel; channel r is r * H * W
///   further on. `bias` (ROWS values) may be null.
/// Lanes past the row's end compute on the frame or the next row and are
/// never stored.
///
/// Exported, never inlined and never cloned (GCC would otherwise emit a
/// local `.isra` copy of conv_rows<1>): the sampling profiler names frames
/// by exported symbol only, charging a sample in a local function to
/// whichever exported symbol precedes it, and profiler_smoke greps its
/// folded stacks for this name.
template <std::size_t ROWS>
[[gnu::noinline, gnu::noclone]] void conv_rows(
    const float* xp, const std::size_t* off, std::size_t K,
    std::size_t stride, const float* wb, const float* bias, float* y,
    std::size_t H, std::size_t W, std::size_t oy0, std::size_t oy1) {
  for (std::size_t oy = oy0; oy < oy1; ++oy) {
    for (std::size_t ox = 0; ox < W; ox += kConvTile) {
      const float* xt = xp + oy * stride + ox;
      F32x4 c[ROWS][kConvVecs] = {};
      for (std::size_t p0 = 0; p0 < K; p0 += kConvChunk) {
        const std::size_t p1 = std::min(K, p0 + kConvChunk);
        F32x4 acc[ROWS][kConvVecs] = {};
        for (std::size_t p = p0; p < p1; ++p) {
          const float* src = xt + off[p];
          F32x4 xv[kConvVecs];
          for (std::size_t v = 0; v < kConvVecs; ++v)
            xv[v] = load4(src + v * kConvLanes);
          const float* wp = wb + p * ROWS * kConvLanes;
          for (std::size_t r = 0; r < ROWS; ++r) {
            const F32x4 wv = load4(wp + r * kConvLanes);
            for (std::size_t v = 0; v < kConvVecs; ++v)
              acc[r][v] += wv * xv[v];
          }
        }
        for (std::size_t r = 0; r < ROWS; ++r)
          for (std::size_t v = 0; v < kConvVecs; ++v)
            c[r][v] = p0 == 0 ? acc[r][v] : acc[r][v] + c[r][v];
      }
      const std::size_t n = std::min(kConvTile, W - ox);
      for (std::size_t r = 0; r < ROWS; ++r) {
        float out[kConvTile];
        for (std::size_t v = 0; v < kConvVecs; ++v) {
          F32x4 cv = c[r][v];
          if (bias != nullptr) cv += F32x4{bias[r], bias[r], bias[r], bias[r]};
          store4(out + v * kConvLanes, cv);
        }
        std::memcpy(y + r * H * W + oy * W + ox, out, n * sizeof(float));
      }
    }
  }
}

}  // namespace detail

namespace {

/// Fused single-pass plane reduction: running sum and max (with position)
/// in one sweep. The sum MUST accumulate serially left-to-right in double:
/// this feeds the cross-field codec, whose decoder recomputes the encoder's
/// predictions bit-exactly (crossfield.cpp pins this) — changing the
/// summation order would change ulps of the pooled average and silently
/// corrupt pre-existing kCrossField streams (guarded by test_golden's
/// cross-field archive).
void pool_plane(const float* p, std::size_t hw, float& avg_out,
                float& max_out, std::size_t& argmax_out) {
  if (detail::g_perturb_attention_pool_for_tests) {
    // Negative-control path: reversed single-precision accumulation —
    // exactly the kind of "harmless" reduction reorder the golden pin
    // must catch.
    float sum = p[hw - 1];
    for (std::size_t i = hw - 1; i-- > 0;) sum += p[i];
    float best = p[0];
    std::size_t best_i = 0;
    for (std::size_t i = 1; i < hw; ++i)
      if (p[i] > best) {
        best = p[i];
        best_i = i;
      }
    avg_out = sum / static_cast<float>(hw);
    max_out = best;
    argmax_out = best_i;
    return;
  }
  double sum = p[0];
  float best = p[0];
  std::size_t best_i = 0;
  for (std::size_t i = 1; i < hw; ++i) {
    sum += p[i];
    if (p[i] > best) {
      best = p[i];
      best_i = i;
    }
  }
  avg_out = static_cast<float>(sum / static_cast<double>(hw));
  max_out = best;
  argmax_out = best_i;
}

/// Shared-MLP forward for one pooled descriptor (length c).
void attn_mlp_forward(const float* w1, const float* b1, const float* w2,
                      const float* b2, std::size_t c, std::size_t mid,
                      const float* v, float* hidden_pre, float* hidden_post,
                      float* out) {
  for (std::size_t m = 0; m < mid; ++m) {
    double acc = b1[m];
    const float* row = w1 + m * c;
    for (std::size_t ch = 0; ch < c; ++ch) acc += row[ch] * v[ch];
    hidden_pre[m] = static_cast<float>(acc);
    hidden_post[m] = acc > 0.0 ? static_cast<float>(acc) : 0.0f;
  }
  for (std::size_t ch = 0; ch < c; ++ch) {
    double acc = b2[ch];
    const float* row = w2 + ch * mid;
    for (std::size_t m = 0; m < mid; ++m) acc += row[m] * hidden_post[m];
    out[ch] = static_cast<float>(acc);
  }
}

}  // namespace

/// Copies each (image, channel) input plane once into a zero-framed buffer
/// and broadcasts the weights once, then runs detail::conv_rows over tasks
/// of (image, group, block of <= kConvBlock output channels, row band).
void detail::conv_forward(const float* x, const float* wts,
                          const float* bias, std::size_t B, std::size_t in_ch,
                          std::size_t H, std::size_t W, std::size_t out_ch,
                          std::size_t k, std::size_t groups, float* y) {
  using detail::kConvBlock;
  using detail::kConvLanes;
  using detail::kConvTile;
  const std::size_t icg = in_ch / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t K = icg * k * k;
  const std::size_t pad = k / 2;
  const std::size_t stride = ceil_div(W + 2 * pad, kConvTile) * kConvTile;
  const std::size_t plane = (H + 2 * pad) * stride;
  const std::size_t blocks = ceil_div(ocg, kConvBlock);

  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  // The last plane's ragged tiles read up to kConvTile - 1 floats past it.
  float* xp = ws.acquire(B * in_ch * plane + kConvTile);
  float* wb = ws.acquire(groups * blocks * K * kConvBlock * kConvLanes);
  std::size_t* off = ws.acquire_as<std::size_t>(K);

  parallel_for_chunked(0, B * in_ch, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t bc = lo; bc < hi; ++bc) {
      const float* src = x + bc * H * W;
      float* dst = xp + bc * plane;
      std::fill(dst, dst + pad * stride, 0.0f);
      for (std::size_t iy = 0; iy < H; ++iy) {
        float* row = dst + (pad + iy) * stride;
        std::fill(row, row + pad, 0.0f);
        std::memcpy(row + pad, src + iy * W, W * sizeof(float));
        std::fill(row + pad + W, row + stride, 0.0f);
      }
      std::fill(dst + (pad + H) * stride, dst + plane, 0.0f);
    }
  });
  std::fill(xp + B * in_ch * plane, xp + B * in_ch * plane + kConvTile, 0.0f);

  for (std::size_t ic = 0, p = 0; ic < icg; ++ic)
    for (std::size_t ky = 0; ky < k; ++ky)
      for (std::size_t kx = 0; kx < k; ++kx)
        off[p++] = ic * plane + ky * stride + kx;

  // Block u = g * blocks + ob holds channels [ob * kConvBlock, + rows) of
  // group g, stored [term][channel][lane] with `rows` channels per term.
  const auto block_rows = [&](std::size_t ob) {
    return std::min(kConvBlock, ocg - ob * kConvBlock);
  };
  for (std::size_t g = 0; g < groups; ++g)
    for (std::size_t ob = 0; ob < blocks; ++ob) {
      const std::size_t rows = block_rows(ob);
      float* dst = wb + (g * blocks + ob) * K * kConvBlock * kConvLanes;
      for (std::size_t p = 0; p < K; ++p)
        for (std::size_t r = 0; r < rows; ++r) {
          const float w = wts[(g * ocg + ob * kConvBlock + r) * K + p];
          for (std::size_t l = 0; l < kConvLanes; ++l) *dst++ = w;
        }
    }

  // One index per (image, group, block, output row); each parallel chunk
  // splits into row bands that stay within one block.
  const std::size_t units = B * groups * blocks;
  parallel_for_chunked(0, units * H, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi;) {
      const std::size_t u = i / H;
      const std::size_t oy0 = i % H;
      const std::size_t oy1 = std::min(H, oy0 + (hi - i));
      i += oy1 - oy0;
      const std::size_t b = u / (groups * blocks);
      const std::size_t g = u / blocks % groups;
      const std::size_t ob = u % blocks;
      const std::size_t oc0 = g * ocg + ob * kConvBlock;
      const float* xg = xp + (b * in_ch + g * icg) * plane;
      const float* wu = wb + (g * blocks + ob) * K * kConvBlock * kConvLanes;
      const float* bu = bias != nullptr ? bias + oc0 : nullptr;
      float* yu = y + (b * out_ch + oc0) * H * W;
      switch (block_rows(ob)) {
        case 1:
          detail::conv_rows<1>(xg, off, K, stride, wu, bu, yu, H, W, oy0, oy1);
          break;
        case 2:
          detail::conv_rows<2>(xg, off, K, stride, wu, bu, yu, H, W, oy0, oy1);
          break;
        case 3:
          detail::conv_rows<3>(xg, off, K, stride, wu, bu, yu, H, W, oy0, oy1);
          break;
        default:
          detail::conv_rows<4>(xg, off, K, stride, wu, bu, yu, H, W, oy0, oy1);
          break;
      }
    }
  });
}

namespace {

void bias_add_forward(const float* x, const float* bias, std::size_t B,
                      std::size_t C, std::size_t hw, float* y) {
  parallel_for_chunked(0, B * C, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t task = lo; task < hi; ++task) {
      const float* in = x + task * hw;
      float* out = y + task * hw;
      const float bv = bias[task % C];
      for (std::size_t i = 0; i < hw; ++i) out[i] = in[i] + bv;
    }
  });
}

void relu_forward(const float* x, std::size_t n, float* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = x[i] < 0.0f ? 0.0f : x[i];
}

/// Channel-attention composite forward. Stage 1 pools every (batch,
/// channel) plane in parallel; stage 2 runs the tiny shared MLP serially
/// per batch element; stage 3 rescales plane-parallel. Identical math in
/// both modes — the aux buffers double as backward caches in train mode.
void attention_forward(const float* x, const float* w1, const float* b1,
                       const float* w2, const float* b2, std::size_t B,
                       std::size_t c, std::size_t mid, std::size_t hw,
                       detail::AttnAux aux, float* y) {
  parallel_for_chunked(0, B * c, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t bc = lo; bc < hi; ++bc)
      pool_plane(x + bc * hw, hw, aux.avg[bc], aux.mx[bc], aux.argmax[bc]);
  });

  for (std::size_t b = 0; b < B; ++b) {
    attn_mlp_forward(w1, b1, w2, b2, c, mid, aux.avg + b * c,
                     aux.ha_pre + b * mid, aux.ha_post + b * mid,
                     aux.za + b * c);
    attn_mlp_forward(w1, b1, w2, b2, c, mid, aux.mx + b * c,
                     aux.hm_pre + b * mid, aux.hm_post + b * mid,
                     aux.zm + b * c);
  }

  parallel_for_chunked(0, B * c, 0, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t bc = lo; bc < hi; ++bc) {
      const double z = static_cast<double>(aux.za[bc]) + aux.zm[bc];
      const float s = static_cast<float>(1.0 / (1.0 + std::exp(-z)));
      aux.scale[bc] = s;
      const float* in = x + bc * hw;
      float* out = y + bc * hw;
      for (std::size_t i = 0; i < hw; ++i) out[i] = in[i] * s;
    }
  });
}

double mse_forward(const float* p, const float* t, std::size_t n) {
  const double inv_n = 1.0 / static_cast<double>(n);
  double loss = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    loss += d * d;
  }
  return loss * inv_n;
}

}  // namespace

// ------------------------------------------------------------ GraphExec ----

GraphExec::GraphExec(Graph& g, Workspace& ws) : g_(g), ws_(ws) {
  n_ = g.nodes_.size();
  expects(n_ > 0, "GraphExec: empty graph");
  mark_ = ws.mark();

  val_ = ws.acquire_as<const float*>(n_);
  buf_ = ws.acquire_as<float*>(n_);
  grd_ = ws.acquire_as<float*>(n_);
  aux_ = ws.acquire_as<float*>(n_);
  iaux_ = ws.acquire_as<std::size_t*>(n_);
  gwritten_ = ws.acquire_as<std::uint8_t>(n_);

  // Value-buffer planning: in infer mode buffers are recycled with a
  // last-use free list (register allocation over the tape), bounding peak
  // memory to the live set instead of the whole tape; in train mode every
  // activation stays live for backward. Planning scratch comes from the
  // arena too — construction is allocation-free once slabs have grown.
  std::int32_t* cons_left = ws.acquire_as<std::int32_t>(n_);
  std::int32_t* slot_of = ws.acquire_as<std::int32_t>(n_);
  std::size_t* slot_cap = ws.acquire_as<std::size_t>(n_);
  std::int32_t* free_stack = ws.acquire_as<std::int32_t>(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    cons_left[i] = 0;
    slot_of[i] = -1;
  }
  for (std::size_t i = 0; i < n_; ++i)
    for (std::int32_t in_id : g.nodes_[i].in)
      if (in_id >= 0) ++cons_left[in_id];

  const bool reuse = g.mode() == Graph::Mode::kInfer;
  std::size_t n_slots = 0, n_free = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    const Node& nd = g.nodes_[i];
    if (nd.op != Op::kInput && nd.op != Op::kParam) {
      std::int32_t s;
      if (reuse && n_free > 0) {
        s = free_stack[--n_free];
        slot_cap[s] = std::max(slot_cap[s], nd.shape.size());
      } else {
        s = static_cast<std::int32_t>(n_slots++);
        slot_cap[s] = nd.shape.size();
      }
      slot_of[i] = s;
    }
    // Inputs release only after this node's own slot is chosen, so an
    // output buffer never aliases an input buffer.
    if (reuse)
      for (std::int32_t in_id : nd.in)
        if (in_id >= 0 && --cons_left[in_id] == 0 && slot_of[in_id] >= 0)
          free_stack[n_free++] = slot_of[in_id];
  }

  float** slot_buf = ws.acquire_as<float*>(n_slots > 0 ? n_slots : 1);
  for (std::size_t s = 0; s < n_slots; ++s)
    slot_buf[s] = ws.acquire(slot_cap[s]);

  for (std::size_t i = 0; i < n_; ++i) {
    const Node& nd = g.nodes_[i];
    buf_[i] = slot_of[i] >= 0 ? slot_buf[slot_of[i]] : nullptr;
    aux_[i] = nd.aux_floats > 0 ? ws.acquire(nd.aux_floats) : nullptr;
    iaux_[i] =
        nd.aux_ints > 0 ? ws.acquire_as<std::size_t>(nd.aux_ints) : nullptr;
    switch (nd.op) {
      case Op::kParam:
        val_[i] = nd.value->data();
        grd_[i] = g.param_grads_[static_cast<std::size_t>(nd.param_idx)]
                      .data();
        break;
      case Op::kInput:
        val_[i] = nullptr;
        grd_[i] = nd.needs_grad ? ws.acquire(nd.shape.size()) : nullptr;
        break;
      default:
        val_[i] = buf_[i];
        grd_[i] = g.mode() == Graph::Mode::kTrain && nd.needs_grad
                      ? ws.acquire(nd.shape.size())
                      : nullptr;
        break;
    }
    gwritten_[i] = 0;
  }
}

GraphExec::~GraphExec() { ws_.rewind(mark_); }

void GraphExec::bind(NodeRef input, const float* data) {
  const Node& nd = g_.at(input);
  expects(nd.op == Op::kInput, "GraphExec::bind: node is not an input");
  expects(data != nullptr, "GraphExec::bind: null data");
  val_[static_cast<std::size_t>(input.id)] = data;
}

const float* GraphExec::value(NodeRef r) const {
  (void)g_.at(r);
  return val_[static_cast<std::size_t>(r.id)];
}

const float* GraphExec::grad(NodeRef r) const {
  (void)g_.at(r);
  return grd_[static_cast<std::size_t>(r.id)];
}

void GraphExec::forward() {
  for (std::size_t i = 0; i < n_; ++i) eval(i);
}

void GraphExec::eval(std::size_t i) {
  const Node& nd = g_.nodes_[i];
  const auto in_val = [&](int slot) -> const float* {
    return val_[static_cast<std::size_t>(nd.in[slot])];
  };
  const auto in_shape = [&](int slot) -> const GShape& {
    return g_.nodes_[static_cast<std::size_t>(nd.in[slot])].shape;
  };
  switch (nd.op) {
    case Op::kInput:
      expects(val_[i] != nullptr, "GraphExec::forward: unbound input node");
      break;
    case Op::kParam:
      break;
    case Op::kConv2D: {
      const GShape& xs = in_shape(0);
      detail::conv_forward(in_val(0), in_val(1),
                           nd.in[2] >= 0 ? in_val(2) : nullptr, xs.n, xs.c,
                           xs.h, xs.w, nd.shape.c, nd.a0, nd.a1, buf_[i]);
      break;
    }
    case Op::kBiasAdd: {
      const GShape& xs = in_shape(0);
      bias_add_forward(in_val(0), in_val(1), xs.n, xs.c, xs.h * xs.w,
                       buf_[i]);
      break;
    }
    case Op::kReLU:
      relu_forward(in_val(0), nd.shape.size(), buf_[i]);
      break;
    case Op::kChannelAttention: {
      const GShape& xs = in_shape(0);
      const std::size_t mid = xs.c / nd.a0;
      attention_forward(in_val(0), in_val(1), in_val(2), in_val(3),
                        in_val(4), xs.n, xs.c, mid, xs.h * xs.w,
                        detail::AttnAux(aux_[i], iaux_[i], xs.n, xs.c, mid),
                        buf_[i]);
      break;
    }
    case Op::kMseLoss:
      loss_ = mse_forward(in_val(0), in_val(1), in_shape(0).size());
      buf_[i][0] = static_cast<float>(loss_);
      break;
  }
}

}  // namespace xfc::nn
