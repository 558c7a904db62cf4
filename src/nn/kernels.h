#pragma once
// Batched inference kernels for the nn layers: a register-blocked GEMM and
// the im2col restructuring that turns Conv1D into it.
//
// Bit-identity contract: gemm_bt accumulates each output element in exactly
// the order a naive dot-product loop would — seeded from the bias, then
// k = 0, 1, ..., K-1, with every product rounded to double before it is
// added — so layers rebuilt on it produce results bit-identical to the
// original scalar loops (asserted in tests/test_nn_engine.cpp). Blocking
// happens only across independent output elements (rows/columns of C),
// never inside one accumulation chain. There is one implementation and no
// runtime ISA dispatch: every machine, test, and CI job runs the same code.

#include <cstddef>

namespace noodle::nn {

/// C = A · Bᵀ (+ bias), row-major, f64:
///
///   C[i*c_row_stride + j*c_col_stride] =
///       (bias ? bias[j] : 0) + Σ_{kk=0..k-1} A[i*lda + kk] · B[j*ldb + kk]
///
/// for i in [0, m), j in [0, n). A is m×k with leading dimension lda, B is
/// n×k with leading dimension ldb (so B rows are the weight vectors in both
/// Dense and im2col'd Conv1D), bias has length n or is null. The separate
/// row/column strides for C let Conv1D write its channels-major output
/// layout directly. Buffers must not overlap.
void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, const double* bias,
             double* c, std::size_t c_row_stride, std::size_t c_col_stride);

/// im2col for 1-D valid convolution over one channels-major sample row
/// `row` = [c0 t0..tL-1 | c1 t0..tL-1 | ...] of in_channels × in_len:
///
///   col[t*(in_channels*kernel) + ic*kernel + kk] = row[ic*in_len + t + kk]
///
/// for t in [0, in_len - kernel + 1). Each col row enumerates the receptive
/// field in (ic outer, kk inner) order — the naive Conv1D accumulation
/// order — so gemm_bt over col reproduces the scalar loops bit-for-bit.
/// `col` must hold (in_len - kernel + 1) * in_channels * kernel elements.
void im2col_1d(const double* row, std::size_t in_channels, std::size_t in_len,
               std::size_t kernel, double* col);

}  // namespace noodle::nn
