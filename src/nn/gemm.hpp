#ifndef XFC_NN_GEMM_HPP
#define XFC_NN_GEMM_HPP

/// \file gemm.hpp
/// Single-precision GEMM: the Linear forward pass, and the backward passes
/// of Linear and of Conv2D (via im2col/col2im). The Conv2D forward pass is
/// a direct kernel (graph.cpp) that sums in the order this GEMM's KC = 240
/// blocking fixed for the archives written before it.
///
/// All matrices are dense row-major. Computes
///   C = alpha * op(A) * op(B) + beta * C
/// where op(X) is X or X^T per the trans flags; op(A) is m x k, op(B) is
/// k x n, C is m x n. `lda`/`ldb`/`ldc` are the row strides of the stored
/// (untransposed) matrices.
///
/// `sgemm` is cache-blocked and register-tiled (pack + micro-kernel, the
/// classic BLIS/GotoBLAS loop nest); `sgemm_ref` is the naive
/// triple-loop reference retained for tests, which cross-check the two to
/// 1e-4 relative tolerance across shapes and transpose combinations.

#include <cstddef>

namespace xfc::nn {

void sgemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
           std::size_t k, float alpha, const float* a, std::size_t lda,
           const float* b, std::size_t ldb, float beta, float* c,
           std::size_t ldc);

void sgemm_ref(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc);

}  // namespace xfc::nn

#endif  // XFC_NN_GEMM_HPP
