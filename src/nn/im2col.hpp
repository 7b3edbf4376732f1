#ifndef XFC_NN_IM2COL_HPP
#define XFC_NN_IM2COL_HPP

/// \file im2col.hpp
/// Convolution lowering for the backward pass of stride-1,
/// zero-"same"-padded 2-D convolution. The forward pass does not lower: it
/// is a direct kernel (graph.cpp), and im2col and col2im serve only the
/// backward pass (autodiff.cpp), plus test_gemm's reference for the
/// forward pass the direct kernel replaced.
///
/// im2col rewrites one (image, group) input block [icg][H][W] as a column
/// matrix col[icg*k*k][H*W]: row (ic*k + ky)*k + kx holds, for each output
/// pixel, the input value the (ky, kx) weight tap reads. The conv gradients
/// then become one GEMM each per (image, group):
///   input grad     dC = W^T  (icg*k*k x ocg) * dY, then col2im   (beta 0)
///   weight grad    dW += dY  (ocg x H*W)     * col^T             (beta 1)
///
/// The padding boundary is handled *here*, once per row: interior spans
/// are bulk row copies with no per-pixel bounds checks; only the halo
/// (the up-to-pad-wide frame) sees explicit zero-fill. The GEMMs never
/// branch on position.
///
/// conv2d_ref_* are the retained naive six-loop kernels, used by
/// tests/test_gemm.cpp to cross-check the lowered paths to 1e-4 relative
/// tolerance.

#include <cstddef>
#include <vector>

#include "nn/tensor.hpp"

namespace xfc::nn {

/// Lowers src[icg][H][W] into col[icg*k*k][H*W]. k must be odd (pad = k/2).
void im2col(const float* src, std::size_t icg, std::size_t h, std::size_t w,
            std::size_t k, float* col);

/// Scatter-add inverse of im2col: accumulates col[icg*k*k][H*W] back into
/// dst[icg][H][W]. dst must be zero-initialised by the caller (Conv2D
/// accumulates several groups' contributions into one gradient tensor).
void col2im(const float* col, std::size_t icg, std::size_t h, std::size_t w,
            std::size_t k, float* dst);

/// Naive reference forward: weight layout [out_ch][in_ch/groups][k][k],
/// bias may be null.
Tensor conv2d_ref_forward(const Tensor& x, const std::vector<float>& weight,
                          const float* bias, std::size_t out_ch,
                          std::size_t k, std::size_t groups);

/// Naive reference backward. Accumulates (+=) into grad_weight/grad_bias
/// like Conv2D::backward does; grad_bias may be null. Returns dL/dx.
Tensor conv2d_ref_backward(const Tensor& x, const Tensor& grad_out,
                           const std::vector<float>& weight,
                           std::size_t out_ch, std::size_t k,
                           std::size_t groups,
                           std::vector<float>& grad_weight,
                           float* grad_bias);

}  // namespace xfc::nn

#endif  // XFC_NN_IM2COL_HPP
