#ifndef XFC_TESTS_CONV_REF_HPP
#define XFC_TESTS_CONV_REF_HPP

/// Naive six-loop reference kernels for stride-1, zero-"same"-padded,
/// grouped 2-D convolution (weight layout [out_ch][in_ch/groups][k][k]).
/// Tests cross-check the graph's direct conv kernels against them to 1e-4
/// relative tolerance; they sum in double and skip padding terms, so they
/// are not bit references for the frozen forward order.

#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"

namespace xfc::nn {

/// Reference forward; bias may be null.
inline Tensor conv2d_ref_forward(const Tensor& x,
                                 const std::vector<float>& weight,
                                 const float* bias, std::size_t out_ch,
                                 std::size_t k, std::size_t groups) {
  const std::size_t B = x.n(), H = x.h(), W = x.w();
  const std::size_t icg = x.c() / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t pad = k / 2;
  Tensor y(B, out_ch, H, W);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      const std::size_t g = oc / ocg;
      float* out = y.plane(b, oc);
      const float* wbase = weight.data() + oc * icg * k * k;
      const float bv = bias != nullptr ? bias[oc] : 0.0f;
      for (std::size_t oy = 0; oy < H; ++oy) {
        for (std::size_t ox = 0; ox < W; ++ox) {
          double acc = bv;
          for (std::size_t ic = 0; ic < icg; ++ic) {
            const float* in = x.plane(b, g * icg + ic);
            const float* wk = wbase + ic * k * k;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(H)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(W)) continue;
                acc += wk[ky * k + kx] * in[iy * W + ix];
              }
            }
          }
          out[oy * W + ox] = static_cast<float>(acc);
        }
      }
    }
  }
  return y;
}

/// Reference backward. Accumulates (+=) into grad_weight and grad_bias, as
/// the graph's parameter gradients do; grad_bias may be null. Returns dL/dx.
inline Tensor conv2d_ref_backward(const Tensor& x, const Tensor& grad_out,
                                  const std::vector<float>& weight,
                                  std::size_t out_ch, std::size_t k,
                                  std::size_t groups,
                                  std::vector<float>& grad_weight,
                                  float* grad_bias) {
  const std::size_t B = x.n(), H = x.h(), W = x.w();
  const std::size_t icg = x.c() / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t pad = k / 2;

  Tensor gx(B, x.c(), H, W);
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t oc = 0; oc < out_ch; ++oc) {
      const std::size_t g = oc / ocg;
      const float* go = grad_out.plane(b, oc);
      float* gw = grad_weight.data() + oc * icg * k * k;
      double gb = 0.0;
      for (std::size_t ic = 0; ic < icg; ++ic) {
        const float* in = x.plane(b, g * icg + ic);
        float* gxi = gx.plane(b, g * icg + ic);
        const float* wk = weight.data() + (oc * icg + ic) * k * k;
        float* gwk = gw + ic * k * k;
        for (std::size_t oy = 0; oy < H; ++oy) {
          for (std::size_t ox = 0; ox < W; ++ox) {
            const float g0 = go[oy * W + ox];
            if (g0 == 0.0f) continue;
            for (std::size_t ky = 0; ky < k; ++ky) {
              const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                        static_cast<std::ptrdiff_t>(pad);
              if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(H)) continue;
              for (std::size_t kx = 0; kx < k; ++kx) {
                const std::ptrdiff_t ix =
                    static_cast<std::ptrdiff_t>(ox + kx) -
                    static_cast<std::ptrdiff_t>(pad);
                if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(W)) continue;
                gxi[iy * W + ix] += g0 * wk[ky * k + kx];
                gwk[ky * k + kx] += g0 * in[iy * W + ix];
              }
            }
          }
        }
      }
      if (grad_bias != nullptr) {
        for (std::size_t i = 0; i < H * W; ++i) gb += go[i];
        grad_bias[oc] += static_cast<float>(gb);
      }
    }
  }
  return gx;
}

}  // namespace xfc::nn

#endif  // XFC_TESTS_CONV_REF_HPP
