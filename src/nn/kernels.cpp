#include "nn/kernels.h"

#include <algorithm>

namespace noodle::nn {

namespace {

// ---------------------------------------------------------------------------
// Register-blocked scalar kernel. Block shape: 2×4 gives 8 independent
// accumulators fed by 6 loads per k step — enough instruction-level
// parallelism to hide the floating-point add latency that serializes a
// single dot product, while staying inside the 16 SSE2 registers of the
// baseline x86-64 target. Every accumulator adds in strict k order.
// ---------------------------------------------------------------------------

constexpr std::size_t kMr = 2;
constexpr std::size_t kNr = 4;

/// Full 2×4 tile: C[i0..i0+1, j0..j0+3].
inline void micro_2x4(std::size_t k, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, const double* bias,
                      double* c, std::size_t c_row_stride, std::size_t c_col_stride,
                      std::size_t i0, std::size_t j0) {
  const double* a0 = a + i0 * lda;
  const double* a1 = a0 + lda;
  const double* b0 = b + j0 * ldb;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;

  double acc00 = bias ? bias[j0 + 0] : 0.0, acc01 = bias ? bias[j0 + 1] : 0.0;
  double acc02 = bias ? bias[j0 + 2] : 0.0, acc03 = bias ? bias[j0 + 3] : 0.0;
  double acc10 = acc00, acc11 = acc01, acc12 = acc02, acc13 = acc03;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double a0v = a0[kk];
    const double a1v = a1[kk];
    const double b0v = b0[kk], b1v = b1[kk], b2v = b2[kk], b3v = b3[kk];
    acc00 += a0v * b0v;
    acc01 += a0v * b1v;
    acc02 += a0v * b2v;
    acc03 += a0v * b3v;
    acc10 += a1v * b0v;
    acc11 += a1v * b1v;
    acc12 += a1v * b2v;
    acc13 += a1v * b3v;
  }
  double* c0 = c + i0 * c_row_stride + j0 * c_col_stride;
  double* c1 = c0 + c_row_stride;
  c0[0] = acc00;
  c0[c_col_stride] = acc01;
  c0[2 * c_col_stride] = acc02;
  c0[3 * c_col_stride] = acc03;
  c1[0] = acc10;
  c1[c_col_stride] = acc11;
  c1[2 * c_col_stride] = acc12;
  c1[3 * c_col_stride] = acc13;
}

/// One-row tile: C[i0, j0..j0+3]. A lone row (every Dense layer at batch
/// 1, the last row of an odd batch) still gets four independent chains.
inline void micro_1x4(std::size_t k, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, const double* bias,
                      double* c, std::size_t c_row_stride, std::size_t c_col_stride,
                      std::size_t i0, std::size_t j0) {
  const double* a0 = a + i0 * lda;
  const double* b0 = b + j0 * ldb;
  const double* b1 = b0 + ldb;
  const double* b2 = b1 + ldb;
  const double* b3 = b2 + ldb;

  double acc0 = bias ? bias[j0 + 0] : 0.0, acc1 = bias ? bias[j0 + 1] : 0.0;
  double acc2 = bias ? bias[j0 + 2] : 0.0, acc3 = bias ? bias[j0 + 3] : 0.0;
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double a0v = a0[kk];
    acc0 += a0v * b0[kk];
    acc1 += a0v * b1[kk];
    acc2 += a0v * b2[kk];
    acc3 += a0v * b3[kk];
  }
  double* c0 = c + i0 * c_row_stride + j0 * c_col_stride;
  c0[0] = acc0;
  c0[c_col_stride] = acc1;
  c0[2 * c_col_stride] = acc2;
  c0[3 * c_col_stride] = acc3;
}

/// Partial tile at the n edge: plain dot products, same accumulation
/// order as the blocked path (bias first, then k ascending).
inline void edge_tile(std::size_t k, const double* a, std::size_t lda,
                      const double* b, std::size_t ldb, const double* bias,
                      double* c, std::size_t c_row_stride, std::size_t c_col_stride,
                      std::size_t i0, std::size_t ib, std::size_t j0, std::size_t jb) {
  for (std::size_t i = 0; i < ib; ++i) {
    const double* a_row = a + (i0 + i) * lda;
    for (std::size_t j = 0; j < jb; ++j) {
      const double* b_row = b + (j0 + j) * ldb;
      double acc = bias ? bias[j0 + j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
      c[(i0 + i) * c_row_stride + (j0 + j) * c_col_stride] = acc;
    }
  }
}

}  // namespace

void gemm_bt(std::size_t m, std::size_t n, std::size_t k, const double* a,
             std::size_t lda, const double* b, std::size_t ldb, const double* bias,
             double* c, std::size_t c_row_stride, std::size_t c_col_stride) {
  for (std::size_t i0 = 0; i0 < m; i0 += kMr) {
    const std::size_t ib = std::min(kMr, m - i0);
    for (std::size_t j0 = 0; j0 < n; j0 += kNr) {
      const std::size_t jb = std::min(kNr, n - j0);
      if (ib == kMr && jb == kNr) {
        micro_2x4(k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride, i0, j0);
      } else if (jb == kNr) {
        micro_1x4(k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride, i0, j0);
      } else {
        edge_tile(k, a, lda, b, ldb, bias, c, c_row_stride, c_col_stride, i0, ib, j0,
                  jb);
      }
    }
  }
}

void im2col_1d(const double* row, std::size_t in_channels, std::size_t in_len,
               std::size_t kernel, double* col) {
  const std::size_t out_len = in_len - kernel + 1;
  const std::size_t col_width = in_channels * kernel;
  for (std::size_t t = 0; t < out_len; ++t) {
    double* dst = col + t * col_width;
    for (std::size_t ic = 0; ic < in_channels; ++ic) {
      // Element by element: a receptive field is 3-5 doubles, too short
      // for the memmove std::copy becomes.
      const double* src = row + ic * in_len + t;
      for (std::size_t kk = 0; kk < kernel; ++kk) dst[ic * kernel + kk] = src[kk];
    }
  }
}

}  // namespace noodle::nn
