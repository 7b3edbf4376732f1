#include "nn/autodiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/utils.hpp"
#include "nn/layers.hpp"

namespace xfc::nn {

// ---------------------------------------------------- backward kernels ----
//
// The thread-count-determinism contract from graph.hpp applies throughout:
// parallel loops write disjoint regions, and every cross-image reduction
// into a parameter gradient happens in one thread, in image order.

namespace {

void relu_backward(const float* x, const float* go, std::size_t n,
                   bool first, float* gx) {
  if (first) {
    // Loading go[i] unconditionally lets the compiler emit a packed
    // compare-and-select instead of a branch per element.
    for (std::size_t i = 0; i < n; ++i) {
      const float g = go[i];
      gx[i] = x[i] <= 0.0f ? 0.0f : g;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i)
      if (x[i] > 0.0f) gx[i] += go[i];
  }
}

void bias_add_backward(const float* go, std::size_t B, std::size_t C,
                       std::size_t hw, bool first, float* gx, float* gb) {
  if (gx != nullptr) {
    const std::size_t n = B * C * hw;
    if (first) {
      std::memcpy(gx, go, n * sizeof(float));
    } else {
      for (std::size_t i = 0; i < n; ++i) gx[i] += go[i];
    }
  }
  if (gb != nullptr) {
    parallel_for_chunked(0, C, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t c = lo; c < hi; ++c) {
        double acc = 0.0;
        for (std::size_t b = 0; b < B; ++b) {
          const float* p = go + (b * C + c) * hw;
          for (std::size_t i = 0; i < hw; ++i) acc += p[i];
        }
        gb[c] += static_cast<float>(acc);
      }
    });
  }
}

// Conv weight-gradient register tile: four-lane vectors, as in graph.cpp's
// conv_rows (training arithmetic is not frozen, but it is deterministic).
using F32x4 = float __attribute__((vector_size(16)));

inline F32x4 load4(const float* p) {
  F32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

constexpr std::size_t kWgradBlock = 4;  // output channels per task

/// Weight gradient of output channels [oc, oc + ROWS) of one group against
/// one of the group's input channels:
///   gw[r][ky][kx] += sum over images b of
///     sum over (oy, ox) of go[b][oc + r][oy][ox] * x[b][ic][iy][ix],
/// iy = oy + ky - pad, ix = ox + kx - pad, padding terms skipped.
/// - `x`, `go`: the input plane and the first output-gradient plane of
///   image 0; images are `x_img` and `go_img` floats apart, and channel r's
///   plane is r * H * W after the first.
/// - `gw`: the first channel's k*k weights; channel r's are r * gw_row on.
/// One image's sum runs over rows, then over 8-, 4- and 1-wide steps of the
/// row's in-plane span, and is added to the running total before the next
/// image: the order depends only on the shapes, never on XFC_THREADS.
template <std::size_t ROWS>
void conv_wgrad_rows(const float* x, const float* go, std::size_t B,
                     std::size_t x_img, std::size_t go_img, std::size_t H,
                     std::size_t W, std::size_t k, float* gw,
                     std::size_t gw_row) {
  const std::size_t pad = k / 2;
  const std::size_t hw = H * W;
  // Output positions [lo, hi) along an axis of length n whose input
  // position o + t - pad lies inside the plane.
  const auto span = [pad](std::size_t n, std::size_t t, std::size_t& lo,
                          std::size_t& hi) {
    lo = t < pad ? std::min(pad - t, n) : 0;
    hi = t > pad ? (t - pad < n ? n - (t - pad) : 0) : n;
    hi = std::max(lo, hi);
  };
  for (std::size_t ky = 0; ky < k; ++ky) {
    std::size_t oy0 = 0, oy1 = 0;
    span(H, ky, oy0, oy1);
    for (std::size_t kx = 0; kx < k; ++kx) {
      std::size_t ox0 = 0, ox1 = 0;
      span(W, kx, ox0, ox1);
      const std::size_t n = ox1 - ox0;
      float total[ROWS] = {};
      for (std::size_t b = 0; b < B; ++b) {
        F32x4 acc[ROWS][2] = {};
        float tail[ROWS] = {};
        for (std::size_t oy = oy0; oy < oy1; ++oy) {
          const float* xs = x + b * x_img + (oy + ky - pad) * W + ox0 + kx -
                            pad;
          const float* gs = go + b * go_img + oy * W + ox0;
          std::size_t i = 0;
          for (; i + 8 <= n; i += 8) {
            const F32x4 x0 = load4(xs + i);
            const F32x4 x1 = load4(xs + i + 4);
            for (std::size_t r = 0; r < ROWS; ++r) {
              acc[r][0] += load4(gs + r * hw + i) * x0;
              acc[r][1] += load4(gs + r * hw + i + 4) * x1;
            }
          }
          if (i + 4 <= n) {
            const F32x4 x0 = load4(xs + i);
            for (std::size_t r = 0; r < ROWS; ++r)
              acc[r][0] += load4(gs + r * hw + i) * x0;
            i += 4;
          }
          for (; i < n; ++i)
            for (std::size_t r = 0; r < ROWS; ++r)
              tail[r] += gs[r * hw + i] * xs[i];
        }
        for (std::size_t r = 0; r < ROWS; ++r) {
          const F32x4 s = acc[r][0] + acc[r][1];
          total[r] += ((s[0] + s[1]) + (s[2] + s[3])) + tail[r];
        }
      }
      for (std::size_t r = 0; r < ROWS; ++r)
        gw[r * gw_row + ky * k + kx] += total[r];
    }
  }
}

/// Conv2D backward.
/// - Data gradient: the transposed convolution, which is detail::conv_forward
///   on the output gradient with each group's weights transposed (in <-> out)
///   and flipped. The first writer of gx convolves into it; a later one
///   convolves into scratch and adds.
/// - Weight gradient: conv_wgrad_rows over tasks of (group, block of
///   <= kWgradBlock output channels, input channel), disjoint weight slices.
/// - Bias gradient: per channel, one double sum over images in order.
void conv_backward(const float* x, const float* wts, const float* go,
                   std::size_t B, std::size_t in_ch, std::size_t H,
                   std::size_t W, std::size_t out_ch, std::size_t k,
                   std::size_t groups, bool first, Workspace& ws, float* gx,
                   float* gw, float* gb) {
  const std::size_t hw = H * W;
  const std::size_t icg = in_ch / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t k2 = k * k;

  if (gx != nullptr) {
    const ScratchScope scope(ws);
    // wt[g * icg + ic][oc][ky][kx] = w[g * ocg + oc][ic][k-1-ky][k-1-kx]
    float* wt = ws.acquire(out_ch * icg * k2);
    for (std::size_t g = 0; g < groups; ++g)
      for (std::size_t ic = 0; ic < icg; ++ic)
        for (std::size_t oc = 0; oc < ocg; ++oc) {
          const float* src = wts + ((g * ocg + oc) * icg + ic) * k2;
          float* dst = wt + ((g * icg + ic) * ocg + oc) * k2;
          for (std::size_t t = 0; t < k2; ++t) dst[t] = src[k2 - 1 - t];
        }
    const std::size_t n = B * in_ch * hw;
    float* dst = first ? gx : ws.acquire(n);
    detail::conv_forward(go, wt, nullptr, B, out_ch, H, W, in_ch, k, groups,
                         dst);
    if (!first)
      for (std::size_t i = 0; i < n; ++i) gx[i] += dst[i];
  }

  if (gw != nullptr) {
    const std::size_t blocks = ceil_div(ocg, kWgradBlock);
    const std::size_t x_img = in_ch * hw, go_img = out_ch * hw;
    const std::size_t gw_row = icg * k2;
    parallel_for_chunked(0, groups * blocks * icg, 1, [&](std::size_t lo,
                                                          std::size_t hi) {
      for (std::size_t task = lo; task < hi; ++task) {
        const std::size_t g = task / (blocks * icg);
        const std::size_t ob = task / icg % blocks;
        const std::size_t ic = task % icg;
        const std::size_t oc = g * ocg + ob * kWgradBlock;
        const float* xc = x + (g * icg + ic) * hw;
        const float* goc = go + oc * hw;
        float* gwc = gw + (oc * icg + ic) * k2;
        switch (std::min(kWgradBlock, ocg - ob * kWgradBlock)) {
          case 1:
            conv_wgrad_rows<1>(xc, goc, B, x_img, go_img, H, W, k, gwc, gw_row);
            break;
          case 2:
            conv_wgrad_rows<2>(xc, goc, B, x_img, go_img, H, W, k, gwc, gw_row);
            break;
          case 3:
            conv_wgrad_rows<3>(xc, goc, B, x_img, go_img, H, W, k, gwc, gw_row);
            break;
          default:
            conv_wgrad_rows<4>(xc, goc, B, x_img, go_img, H, W, k, gwc, gw_row);
            break;
        }
      }
    });
  }

  if (gb != nullptr) {
    parallel_for_chunked(0, out_ch, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t oc = lo; oc < hi; ++oc) {
        double acc = 0.0;
        for (std::size_t b = 0; b < B; ++b) {
          const float* p = go + (b * out_ch + oc) * hw;
          for (std::size_t i = 0; i < hw; ++i) acc += p[i];
        }
        gb[oc] += static_cast<float>(acc);
      }
    });
  }
}

/// Backward through one shared-MLP branch: grads of w1/b1/w2/b2 accumulate;
/// dv receives dL/d(pooled descriptor).
void attn_mlp_backward(const float* w1, const float* w2, std::size_t c,
                       std::size_t mid, const float* v, const float* hpre,
                       const float* hpost, const float* dz, float* dh,
                       float* dv, float* gw1, float* gb1, float* gw2,
                       float* gb2) {
  std::fill(dh, dh + mid, 0.0f);
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float g = dz[ch];
    float* row_g = gw2 + ch * mid;
    const float* row_w = w2 + ch * mid;
    for (std::size_t m = 0; m < mid; ++m) {
      row_g[m] += g * hpost[m];
      dh[m] += g * row_w[m];
    }
    gb2[ch] += g;
  }
  for (std::size_t m = 0; m < mid; ++m)
    if (hpre[m] <= 0.0f) dh[m] = 0.0f;
  std::fill(dv, dv + c, 0.0f);
  for (std::size_t m = 0; m < mid; ++m) {
    const float g = dh[m];
    if (g == 0.0f) continue;
    float* row_g = gw1 + m * c;
    const float* row_w = w1 + m * c;
    for (std::size_t ch = 0; ch < c; ++ch) {
      row_g[ch] += g * v[ch];
      dv[ch] += g * row_w[ch];
    }
    gb1[m] += g;
  }
}

void attention_backward(const float* x, const float* w1, const float* w2,
                        const float* go, std::size_t B, std::size_t c,
                        std::size_t mid, std::size_t hw,
                        const detail::AttnAux& aux, bool first,
                        Workspace& ws, float* gx, float* gw1, float* gb1,
                        float* gw2, float* gb2) {
  const ScratchScope scope(ws);
  float* dz = ws.acquire(c);
  float* dh = ws.acquire(mid);
  float* davg = ws.acquire(c);
  float* dmx = ws.acquire(c);

  for (std::size_t b = 0; b < B; ++b) {
    // dL/dz via the sigmoid: z feeds every pixel of the plane, so the
    // plane-level reduction go·x happens first (serial, double).
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t bc = b * c + ch;
      const float* go_p = go + bc * hw;
      const float* in_p = x + bc * hw;
      const float s = aux.scale[bc];
      double ds = 0.0;
      if (gx != nullptr) {
        float* gx_p = gx + bc * hw;
        if (first) {
          for (std::size_t i = 0; i < hw; ++i) {
            ds += static_cast<double>(go_p[i]) * in_p[i];
            gx_p[i] = go_p[i] * s;
          }
        } else {
          for (std::size_t i = 0; i < hw; ++i) {
            ds += static_cast<double>(go_p[i]) * in_p[i];
            gx_p[i] += go_p[i] * s;
          }
        }
      } else {
        for (std::size_t i = 0; i < hw; ++i)
          ds += static_cast<double>(go_p[i]) * in_p[i];
      }
      dz[ch] = static_cast<float>(ds * s * (1.0 - s));
    }

    // z = za + zm, so the same dz drives both MLP branches.
    attn_mlp_backward(w1, w2, c, mid, aux.avg + b * c, aux.ha_pre + b * mid,
                      aux.ha_post + b * mid, dz, dh, davg, gw1, gb1, gw2,
                      gb2);
    attn_mlp_backward(w1, w2, c, mid, aux.mx + b * c, aux.hm_pre + b * mid,
                      aux.hm_post + b * mid, dz, dh, dmx, gw1, gb1, gw2,
                      gb2);

    if (gx != nullptr) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        const std::size_t bc = b * c + ch;
        float* gx_p = gx + bc * hw;
        const float ga = davg[ch] / static_cast<float>(hw);
        for (std::size_t i = 0; i < hw; ++i) gx_p[i] += ga;
        gx_p[aux.argmax[bc]] += dmx[ch];
      }
    }
  }
}

void mse_backward(const float* p, const float* t, std::size_t n, float scale,
                  bool first_p, float* gp, bool first_t, float* gt) {
  const double inv_n = 1.0 / static_cast<double>(n);
  const double sc = static_cast<double>(scale);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    const float g = static_cast<float>(2.0 * d * inv_n * sc);
    if (gp != nullptr) gp[i] = first_p ? g : gp[i] + g;
    if (gt != nullptr) gt[i] = first_t ? -g : gt[i] - g;
  }
}

}  // namespace

// --------------------------------------------------- GraphExec backward ----

void GraphExec::begin_backward() {
  expects(g_.mode() == Graph::Mode::kTrain,
          "GraphExec::backward: graph is in infer mode");
  // First-writer semantics make zeroing unnecessary: the first gradient
  // contribution to each activation buffer assigns, later ones accumulate.
  std::fill(gwritten_, gwritten_ + n_, std::uint8_t{0});
}

void GraphExec::backward() {
  expects(g_.nodes_.back().op == Op::kMseLoss,
          "GraphExec::backward: root is not a loss node");
  begin_backward();
  for (std::size_t i = n_; i-- > 0;) backprop(i);
}

void GraphExec::backward_from(NodeRef node, const float* seed) {
  const Node& nd = g_.at(node);
  expects(seed != nullptr, "GraphExec::backward_from: null seed");
  begin_backward();
  const std::size_t i0 = static_cast<std::size_t>(node.id);
  expects(grd_[i0] != nullptr,
          "GraphExec::backward_from: node has no gradient buffer");
  std::memcpy(grd_[i0], seed, nd.shape.size() * sizeof(float));
  gwritten_[i0] = 1;
  for (std::size_t i = i0 + 1; i-- > 0;) backprop(i);
}

void GraphExec::backprop(std::size_t i) {
  const Node& nd = g_.nodes_[i];
  if (!nd.needs_grad) return;
  if (nd.op == Op::kInput || nd.op == Op::kParam) return;
  // A loss root starts the sweep with an implicit seed of 1; every other
  // node contributes only if some consumer already wrote its gradient.
  const bool is_unseeded_root = nd.op == Op::kMseLoss && !gwritten_[i];
  if (!gwritten_[i] && !is_unseeded_root) return;

  const auto in_id = [&](int slot) {
    return static_cast<std::size_t>(nd.in[slot]);
  };
  const auto in_val = [&](int slot) { return val_[in_id(slot)]; };
  const auto in_grd = [&](int slot) -> float* {
    return nd.in[slot] >= 0 ? grd_[in_id(slot)] : nullptr;
  };
  const auto first = [&](int slot) { return gwritten_[in_id(slot)] == 0; };
  const auto mark = [&](int slot) {
    if (nd.in[slot] >= 0 && grd_[in_id(slot)] != nullptr)
      gwritten_[in_id(slot)] = 1;
  };
  const float* go = grd_[i];

  switch (nd.op) {
    case Op::kInput:
    case Op::kParam:
      break;
    case Op::kConv2D: {
      const GShape& xs = g_.nodes_[in_id(0)].shape;
      conv_backward(in_val(0), in_val(1), go, xs.n, xs.c, xs.h, xs.w,
                    nd.shape.c, nd.a0, nd.a1, first(0), ws_, in_grd(0),
                    in_grd(1), in_grd(2));
      break;
    }
    case Op::kBiasAdd: {
      const GShape& xs = g_.nodes_[in_id(0)].shape;
      bias_add_backward(go, xs.n, xs.c, xs.h * xs.w, first(0), in_grd(0),
                        in_grd(1));
      break;
    }
    case Op::kReLU:
      if (in_grd(0) != nullptr)
        relu_backward(in_val(0), go, nd.shape.size(), first(0), in_grd(0));
      break;
    case Op::kChannelAttention: {
      const GShape& xs = g_.nodes_[in_id(0)].shape;
      const std::size_t mid = xs.c / nd.a0;
      attention_backward(
          in_val(0), in_val(1), in_val(3), go, xs.n, xs.c, mid, xs.h * xs.w,
          detail::AttnAux(aux_[i], iaux_[i], xs.n, xs.c, mid), first(0),
          ws_, in_grd(0), in_grd(1), in_grd(2), in_grd(3), in_grd(4));
      break;
    }
    case Op::kMseLoss: {
      const GShape& ps = g_.nodes_[in_id(0)].shape;
      const float scale = is_unseeded_root ? 1.0f : go[0];
      mse_backward(in_val(0), in_val(1), ps.size(), scale, first(0),
                   in_grd(0), first(1), in_grd(1));
      break;
    }
  }
  for (int s = 0; s < 5; ++s) mark(s);
}

// ------------------------------------------------------------ check_grad ----

CheckGradResult check_grad(Graph& g, GraphExec& exec,
                           const CheckGradOptions& opts) {
  expects(g.mode() == Graph::Mode::kTrain,
          "check_grad: graph must be in train mode");
  expects(g.node(g.root()).op == Op::kMseLoss,
          "check_grad: root must be a loss node");

  const std::vector<Param> params = g.params();
  g.zero_grad();
  exec.forward();
  exec.backward();
  std::vector<std::vector<float>> analytic;
  analytic.reserve(params.size());
  for (const Param& p : params) analytic.push_back(*p.grad);

  CheckGradResult res;
  Rng rng(opts.seed);
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    std::vector<float>& v = *params[pi].value;
    const std::size_t n = v.size();
    const bool dense = opts.samples_per_param >= n;
    const std::size_t probes = dense ? n : opts.samples_per_param;
    for (std::size_t s = 0; s < probes; ++s) {
      const std::size_t e =
          dense ? s : static_cast<std::size_t>(rng.uniform_index(n));
      const float orig = v[e];
      v[e] = orig + static_cast<float>(opts.eps);
      exec.forward();
      const double lp = exec.loss();
      v[e] = orig - static_cast<float>(opts.eps);
      exec.forward();
      const double lm = exec.loss();
      v[e] = orig;
      const double fd = (lp - lm) / (2.0 * opts.eps);
      const double a = analytic[pi][e];
      const double rel = std::abs(a - fd) /
                         std::max({1.0, std::abs(a), std::abs(fd)});
      ++res.checked;
      if (rel > res.max_rel_err) {
        res.max_rel_err = rel;
        res.worst_param = pi;
        res.worst_elem = e;
        res.worst_analytic = a;
        res.worst_numeric = fd;
      }
    }
  }
  exec.forward();  // leave activations consistent with restored params
  res.ok = res.max_rel_err <= opts.tol;
  return res;
}

CheckGradResult check_grad(Model& m, Graph& g, GraphExec& exec,
                           const CheckGradOptions& opts) {
  (void)m;  // names are for the caller's diagnostics; same verification
  return check_grad(g, exec, opts);
}

// ----------------------------------------------------------------- Model ----

std::vector<float>& Model::add(const std::string& name, std::size_t size) {
  values_.emplace_back(size, 0.0f);
  names_.push_back(name);
  return values_.back();
}

std::vector<float>& Model::add_xavier(const std::string& name,
                                      std::size_t size, std::size_t fan_in,
                                      std::size_t fan_out, Rng& rng) {
  std::vector<float>& v = add(name, size);
  xavier_init(v, fan_in, fan_out, rng);
  return v;
}

std::size_t Model::param_count() const {
  std::size_t n = 0;
  for (const auto& v : values_) n += v.size();
  return n;
}

}  // namespace xfc::nn
