// AVX2 kernels. This translation unit is the only one compiled with -mavx2,
// and every function is reached solely through the runtime dispatch in
// simd.cpp after a __builtin_cpu_supports("avx2") check, so the rest of the
// binary stays runnable on plain SSE2 hardware.
//
// Bitwise contract (see simd.hpp): elementwise kernels use separate mul and
// add -- no FMA -- so they reproduce the scalar fallback exactly; `dot`
// keeps four independent lanes (lane j sums indices == j mod 4) and
// combines them with scalar adds in the fixed order (l0 + l1) + (l2 + l3),
// matching the scalar fallback's lane structure bit for bit. The blocked
// kernels hold a tile of those accumulators in registers and keep each
// one's sequence unchanged.
#ifdef SCS_SIMD_AVX2

#include <immintrin.h>

#include <cstddef>

namespace scs::simd::detail {

void axpy_avx2(double* y, double s, const double* x, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(vy, _mm256_mul_pd(vs, vx)));
  }
  for (; i < n; ++i) y[i] += s * x[i];
}

void add_avx2(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_add_pd(vy, vx));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void sub_avx2(double* y, const double* x, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_sub_pd(vy, vx));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void scale_avx2(double* y, double s, std::size_t n) {
  const __m256d vs = _mm256_set1_pd(s);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vy = _mm256_loadu_pd(y + i);
    _mm256_storeu_pd(y + i, _mm256_mul_pd(vy, vs));
  }
  for (; i < n; ++i) y[i] *= s;
}

double dot_avx2(const double* x, const double* y, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d vx = _mm256_loadu_pd(x + i);
    const __m256d vy = _mm256_loadu_pd(y + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vx, vy));
  }
  alignas(32) double lane[4];
  _mm256_store_pd(lane, acc);
  // Tail terms join the lane their index selects, then the lanes combine
  // with scalar adds in the same order as the scalar fallback.
  if (i < n) lane[0] += x[i] * y[i];
  if (i + 1 < n) lane[1] += x[i + 1] * y[i + 1];
  if (i + 2 < n) lane[2] += x[i + 2] * y[i + 2];
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

namespace {

// The four lanes of a, b, c, d regrouped by lane: lane j of the result
// vector k is lane k of the j-th input.
inline void transpose4(__m256d& a, __m256d& b, __m256d& c, __m256d& d) {
  const __m256d ab_lo = _mm256_unpacklo_pd(a, b);  // a0 b0 a2 b2
  const __m256d ab_hi = _mm256_unpackhi_pd(a, b);  // a1 b1 a3 b3
  const __m256d cd_lo = _mm256_unpacklo_pd(c, d);
  const __m256d cd_hi = _mm256_unpackhi_pd(c, d);
  a = _mm256_permute2f128_pd(ab_lo, cd_lo, 0x20);  // a0 b0 c0 d0
  b = _mm256_permute2f128_pd(ab_hi, cd_hi, 0x20);  // a1 b1 c1 d1
  c = _mm256_permute2f128_pd(ab_lo, cd_lo, 0x31);  // a2 b2 c2 d2
  d = _mm256_permute2f128_pd(ab_hi, cd_hi, 0x31);  // a3 b3 c3 d3
}

// An R x C block of dot_rows: R input rows against C weight rows, each
// weight chunk loaded once per step and shared by the R rows. Every
// accumulator follows dot_avx2 exactly, tail and combine included; with
// C = 4 the four dots of a row finish side by side in one vector, and
// `tail_w` holds the weight rows' tail terms by lane (see tail_weights).
template <int R, int C>
inline void dot_tile(const double* x, std::size_t xs, const double* w,
                     std::size_t ws, std::size_t n, const __m256d* tail_w,
                     double* out, std::size_t os) {
  static_assert(C == 1 || C == 4, "dot_tile: C is 1 or 4");
  __m256d acc[R][C];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) acc[r][c] = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m256d vw[C];
#pragma GCC unroll 4
    for (int c = 0; c < C; ++c) vw[c] = _mm256_loadu_pd(w + c * ws + k);
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d vx = _mm256_loadu_pd(x + r * xs + k);
#pragma GCC unroll 4
      for (int c = 0; c < C; ++c)
        acc[r][c] = _mm256_add_pd(acc[r][c], _mm256_mul_pd(vx, vw[c]));
    }
  }
  if constexpr (C == 4) {
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const double* xr = x + r * xs;
      __m256d l0 = acc[r][0], l1 = acc[r][1], l2 = acc[r][2], l3 = acc[r][3];
      transpose4(l0, l1, l2, l3);
      if (k < n)
        l0 = _mm256_add_pd(l0, _mm256_mul_pd(_mm256_set1_pd(xr[k]), tail_w[0]));
      if (k + 1 < n)
        l1 = _mm256_add_pd(l1,
                           _mm256_mul_pd(_mm256_set1_pd(xr[k + 1]), tail_w[1]));
      if (k + 2 < n)
        l2 = _mm256_add_pd(l2,
                           _mm256_mul_pd(_mm256_set1_pd(xr[k + 2]), tail_w[2]));
      _mm256_storeu_pd(out + r * os, _mm256_add_pd(_mm256_add_pd(l0, l1),
                                                   _mm256_add_pd(l2, l3)));
    }
  } else {
    for (int r = 0; r < R; ++r) {
      const double* xr = x + r * xs;
      alignas(32) double lane[4];
      _mm256_store_pd(lane, acc[r][0]);
      if (k < n) lane[0] += xr[k] * w[k];
      if (k + 1 < n) lane[1] += xr[k + 1] * w[k + 1];
      if (k + 2 < n) lane[2] += xr[k + 2] * w[k + 2];
      out[r * os] = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    }
  }
}

// Column t of the four weight rows' tail (indices n - n % 4 + t): one
// vector per tail index, lane c from row c.
inline void tail_weights(const double* w, std::size_t ws, std::size_t n,
                         __m256d tail_w[3]) {
  const std::size_t k = n - n % 4;
  for (std::size_t t = 0; t < 3; ++t)
    tail_w[t] = k + t < n ? _mm256_setr_pd(w[k + t], w[ws + k + t],
                                           w[2 * ws + k + t], w[3 * ws + k + t])
                          : _mm256_setzero_pd();
}

// A CI x (4 CJ) block of accumulate_rows held in registers across all rows:
// each element sees g + a * b in row order, as in the scalar loop.
template <int CI, int CJ>
inline void accumulate_tile(double* g, std::size_t gs, const double* a,
                            std::size_t as, const double* b, std::size_t bs,
                            std::size_t rows) {
  __m256d acc[CI][CJ];
#pragma GCC unroll 4
  for (int i = 0; i < CI; ++i)
#pragma GCC unroll 4
    for (int j = 0; j < CJ; ++j) acc[i][j] = _mm256_loadu_pd(g + i * gs + 4 * j);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* ar = a + r * as;
    const double* br = b + r * bs;
    __m256d vb[CJ];
#pragma GCC unroll 4
    for (int j = 0; j < CJ; ++j) vb[j] = _mm256_loadu_pd(br + 4 * j);
#pragma GCC unroll 4
    for (int i = 0; i < CI; ++i) {
      const __m256d va = _mm256_broadcast_sd(ar + i);
#pragma GCC unroll 4
      for (int j = 0; j < CJ; ++j)
        acc[i][j] = _mm256_add_pd(acc[i][j], _mm256_mul_pd(va, vb[j]));
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < CI; ++i)
#pragma GCC unroll 4
    for (int j = 0; j < CJ; ++j) _mm256_storeu_pd(g + i * gs + 4 * j, acc[i][j]);
}

// CI rows of g, all n columns: register tiles, then a scalar column tail.
template <int CI>
void accumulate_band(double* g, std::size_t gs, const double* a,
                     std::size_t as, const double* b, std::size_t bs,
                     std::size_t n, std::size_t rows) {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8)
    accumulate_tile<CI, 2>(g + j, gs, a, as, b + j, bs, rows);
  for (; j + 4 <= n; j += 4)
    accumulate_tile<CI, 1>(g + j, gs, a, as, b + j, bs, rows);
  if (j == n) return;
  // The last n % 4 columns: with CI = 4 one vector holds a column's four
  // elements (lane i from row i of g), the tail columns summed side by side.
  if constexpr (CI == 4) {
    __m256d acc[3];
    for (std::size_t t = 0; j + t < n; ++t)
      acc[t] = _mm256_setr_pd(g[j + t], g[gs + j + t], g[2 * gs + j + t],
                              g[3 * gs + j + t]);
    for (std::size_t r = 0; r < rows; ++r) {
      const __m256d va = _mm256_loadu_pd(a + r * as);
      const double* br = b + r * bs + j;
      for (std::size_t t = 0; j + t < n; ++t)
        acc[t] = _mm256_add_pd(acc[t],
                               _mm256_mul_pd(va, _mm256_set1_pd(br[t])));
    }
    for (std::size_t t = 0; j + t < n; ++t) {
      alignas(32) double lane[4];
      _mm256_store_pd(lane, acc[t]);
      for (int i = 0; i < 4; ++i) g[i * gs + j + t] = lane[i];
    }
  } else {
    for (; j < n; ++j) {
      double gij = g[j];
      for (std::size_t r = 0; r < rows; ++r) gij += a[r * as] * b[r * bs + j];
      g[j] = gij;
    }
  }
}

// CJ vectors of one combine_rows output row: the row's nonzero
// coefficients (listed in `nz`, ascending) times their weight rows, summed
// in order onto `out` (zeroed by the caller's first block).
template <int CJ>
inline void combine_tile(const double* a, const std::size_t* nz,
                         std::size_t count, const double* w, std::size_t ws,
                         double* out) {
  __m256d acc[CJ];
#pragma GCC unroll 8
  for (int j = 0; j < CJ; ++j) acc[j] = _mm256_loadu_pd(out + 4 * j);
  for (std::size_t t = 0; t < count; ++t) {
    const __m256d va = _mm256_set1_pd(a[nz[t]]);
    const double* wi = w + nz[t] * ws;
#pragma GCC unroll 8
    for (int j = 0; j < CJ; ++j)
      acc[j] = _mm256_add_pd(acc[j], _mm256_mul_pd(va, _mm256_loadu_pd(wi + 4 * j)));
  }
#pragma GCC unroll 8
  for (int j = 0; j < CJ; ++j) _mm256_storeu_pd(out + 4 * j, acc[j]);
}

}  // namespace

void dot_rows_avx2(const double* x, std::size_t x_rows, std::size_t x_stride,
                   const double* w, std::size_t w_rows, std::size_t w_stride,
                   std::size_t n, double* out, std::size_t out_stride) {
  std::size_t i = 0;
  for (; i + 4 <= w_rows; i += 4) {
    const double* wi = w + i * w_stride;
    __m256d tail_w[3];
    tail_weights(wi, w_stride, n, tail_w);
    std::size_t r = 0;
    for (; r + 2 <= x_rows; r += 2)
      dot_tile<2, 4>(x + r * x_stride, x_stride, wi, w_stride, n, tail_w,
                     out + r * out_stride + i, out_stride);
    for (; r < x_rows; ++r)
      dot_tile<1, 4>(x + r * x_stride, x_stride, wi, w_stride, n, tail_w,
                     out + r * out_stride + i, out_stride);
  }
  for (; i < w_rows; ++i) {
    const double* wi = w + i * w_stride;
    std::size_t r = 0;
    for (; r + 4 <= x_rows; r += 4)
      dot_tile<4, 1>(x + r * x_stride, x_stride, wi, w_stride, n, nullptr,
                     out + r * out_stride + i, out_stride);
    for (; r < x_rows; ++r)
      dot_tile<1, 1>(x + r * x_stride, x_stride, wi, w_stride, n, nullptr,
                     out + r * out_stride + i, out_stride);
  }
}

void accumulate_rows_avx2(double* g, std::size_t g_stride, const double* a,
                          std::size_t a_stride, std::size_t m,
                          const double* b, std::size_t b_stride,
                          std::size_t n, std::size_t rows) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4)
    accumulate_band<4>(g + i * g_stride, g_stride, a + i, a_stride, b,
                       b_stride, n, rows);
  for (; i < m; ++i)
    accumulate_band<1>(g + i * g_stride, g_stride, a + i, a_stride, b,
                       b_stride, n, rows);
}

void combine_rows_avx2(const double* a, std::size_t a_stride, std::size_t m,
                       const double* w, std::size_t w_stride, std::size_t n,
                       double* out, std::size_t out_stride, std::size_t rows) {
  // Each row's nonzero coefficients are listed first (zeros are skipped,
  // as in matvec_t), so the column blocks below loop without a branch per
  // term; blocks of kSpan coefficients bound the list.
  constexpr std::size_t kSpan = 256;
  std::size_t nz[kSpan];
  for (std::size_t r = 0; r < rows; ++r) {
    const double* ar = a + r * a_stride;
    double* o = out + r * out_stride;
    for (std::size_t j = 0; j < n; ++j) o[j] = 0.0;
    for (std::size_t i0 = 0; i0 < m; i0 += kSpan) {
      const std::size_t span = m - i0 < kSpan ? m - i0 : kSpan;
      std::size_t count = 0;
      for (std::size_t i = 0; i < span; ++i) {
        nz[count] = i0 + i;
        count += ar[i0 + i] != 0.0;
      }
      std::size_t j = 0;
      for (; j + 32 <= n; j += 32)
        combine_tile<8>(ar, nz, count, w + j, w_stride, o + j);
      for (; j + 16 <= n; j += 16)
        combine_tile<4>(ar, nz, count, w + j, w_stride, o + j);
      for (; j + 4 <= n; j += 4)
        combine_tile<1>(ar, nz, count, w + j, w_stride, o + j);
      if (j < n) {
        // The last n % 4 columns, as independent scalar sums side by side.
        double tail[3] = {o[j], j + 1 < n ? o[j + 1] : 0.0,
                          j + 2 < n ? o[j + 2] : 0.0};
        for (std::size_t t = 0; t < count; ++t) {
          const double at = ar[nz[t]];
          const double* wt = w + nz[t] * w_stride + j;
          tail[0] += at * wt[0];
          if (j + 1 < n) tail[1] += at * wt[1];
          if (j + 2 < n) tail[2] += at * wt[2];
        }
        for (std::size_t c = 0; j + c < n; ++c) o[j + c] = tail[c];
      }
    }
  }
}

}  // namespace scs::simd::detail

#endif  // SCS_SIMD_AVX2
