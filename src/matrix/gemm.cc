#include "matrix/kernel_internal.h"

#include <cmath>
#include <limits>

#if REMAC_KERNEL_AVX2
#include <immintrin.h>
#endif

namespace remac {
namespace internal {

bool KernelHasAvx2() {
#if REMAC_KERNEL_AVX2
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

#if REMAC_KERNEL_AVX2
// Compiled for AVX2 via the target attribute instead of a TU-wide flag,
// so the rest of the file (and the whole build) keeps the baseline ISA
// and the compiler cannot auto-contract anything into FMA elsewhere.
// Separate mul + add intrinsics keep each lane's rounding identical to
// the scalar `acc += v * b` it replaces; the v == 0.0 skip is preserved
// per left value, so skipped terms never round -0.0 accumulators.
__attribute__((target("avx2"))) void MicroKernel4x16Avx2(
    const double* a0, const double* a1, const double* a2, const double* a3,
    int64_t stride, int64_t j_count, const double* b, int64_t ldb, double* c0,
    double* c1, double* c2, double* c3) {
  __m256d acc[4][4];
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_pd();
  }
  for (int64_t j = 0; j < j_count; ++j) {
    const double* bj = b + j * ldb;
    const __m256d b0 = _mm256_loadu_pd(bj);
    const __m256d b1 = _mm256_loadu_pd(bj + 4);
    const __m256d b2 = _mm256_loadu_pd(bj + 8);
    const __m256d b3 = _mm256_loadu_pd(bj + 12);
    const double vs[4] = {a0[j * stride], a1[j * stride], a2[j * stride],
                          a3[j * stride]};
    for (int r = 0; r < 4; ++r) {
      const double v = vs[r];
      if (v == 0.0) continue;
      const __m256d vv = _mm256_set1_pd(v);
      acc[r][0] = _mm256_add_pd(acc[r][0], _mm256_mul_pd(vv, b0));
      acc[r][1] = _mm256_add_pd(acc[r][1], _mm256_mul_pd(vv, b1));
      acc[r][2] = _mm256_add_pd(acc[r][2], _mm256_mul_pd(vv, b2));
      acc[r][3] = _mm256_add_pd(acc[r][3], _mm256_mul_pd(vv, b3));
    }
  }
  double* cs[4] = {c0, c1, c2, c3};
  for (int r = 0; r < 4; ++r) {
    for (int q = 0; q < 4; ++q) _mm256_storeu_pd(cs[r] + 4 * q, acc[r][q]);
  }
}
#endif  // REMAC_KERNEL_AVX2

// --- vector-shaped kernels --------------------------------------------------
//
// Every kernel below computes, per output cell, the GEMM sum over the
// shared index j in ascending order from +0.0 with the left-value
// v == 0.0 skip. A skipped term is replaced by adding +0.0, which is
// exact: an accumulator that starts at +0.0 can never become -0.0 under
// round-to-nearest, and x + (+0.0) == x for every other x (NaN and ±Inf
// included). Lanes of the AVX2 paths are independent output cells, and
// separate mul + add keep each lane's rounding identical to the scalar
// loop, so results are bitwise-identical to the naive kernel. Products
// keep the naive kernel's operand order (left value first), so even NaN
// payloads propagate alike.

namespace {

/// Rows of the RowDots AVX2 path handled per register tile.
constexpr int64_t kDotRows = 4;

/// One output cell of RowDots: the dot of row `r` with `x`.
inline double RowDot(const double* r, const double* x, int64_t k,
                     bool skip_on_matrix) {
  double s = 0.0;
  for (int64_t j = 0; j < k; ++j) {
    const double left = skip_on_matrix ? r[j] : x[j];
    if (left == 0.0) continue;
    s += skip_on_matrix ? r[j] * x[j] : x[j] * r[j];
  }
  return s;
}

#if REMAC_KERNEL_AVX2
/// Four RowDots cells at once: a 4 x 4 block of the four rows is loaded
/// and transposed in registers, so each lane accumulates one row's terms
/// in ascending j. The skip tests the matrix element (per lane) or x[j].
__attribute__((target("avx2"))) void RowDots4Avx2(const double* r0,
                                                  int64_t ld,
                                                  const double* x, int64_t k,
                                                  bool skip_on_matrix,
                                                  double* out) {
  const double* r1 = r0 + ld;
  const double* r2 = r1 + ld;
  const double* r3 = r2 + ld;
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  int64_t j = 0;
  for (; j + 4 <= k; j += 4) {
    const __m256d a0 = _mm256_loadu_pd(r0 + j);
    const __m256d a1 = _mm256_loadu_pd(r1 + j);
    const __m256d a2 = _mm256_loadu_pd(r2 + j);
    const __m256d a3 = _mm256_loadu_pd(r3 + j);
    const __m256d t0 = _mm256_unpacklo_pd(a0, a1);
    const __m256d t1 = _mm256_unpackhi_pd(a0, a1);
    const __m256d t2 = _mm256_unpacklo_pd(a2, a3);
    const __m256d t3 = _mm256_unpackhi_pd(a2, a3);
    const __m256d cols[4] = {_mm256_permute2f128_pd(t0, t2, 0x20),
                             _mm256_permute2f128_pd(t1, t3, 0x20),
                             _mm256_permute2f128_pd(t0, t2, 0x31),
                             _mm256_permute2f128_pd(t1, t3, 0x31)};
    for (int q = 0; q < 4; ++q) {
      const double xj = x[j + q];
      __m256d prod;
      if (skip_on_matrix) {
        // NEQ_UQ: true for NaN, matching the scalar `v == 0.0` test.
        prod = _mm256_and_pd(_mm256_mul_pd(cols[q], _mm256_set1_pd(xj)),
                             _mm256_cmp_pd(cols[q], zero, _CMP_NEQ_UQ));
      } else {
        if (xj == 0.0) continue;
        prod = _mm256_mul_pd(_mm256_set1_pd(xj), cols[q]);
      }
      acc = _mm256_add_pd(acc, prod);
    }
  }
  alignas(32) double s[4];
  _mm256_store_pd(s, acc);
  const double* rows[4] = {r0, r1, r2, r3};
  for (; j < k; ++j) {
    for (int r = 0; r < 4; ++r) {
      const double left = skip_on_matrix ? rows[r][j] : x[j];
      if (left == 0.0) continue;
      s[r] += skip_on_matrix ? rows[r][j] * x[j] : x[j] * rows[r][j];
    }
  }
  for (int r = 0; r < 4; ++r) out[r] = s[r];
}

/// RowAxpy over output columns [c0, c1) with AVX2: out[c] += y[j] * m[j][c]
/// for j ascending.
__attribute__((target("avx2"))) void RowAxpyAvx2(const double* m, int64_t k,
                                                 int64_t n, const double* y,
                                                 bool skip_on_matrix,
                                                 int64_t c0, int64_t c1,
                                                 double* out) {
  const __m256d zero = _mm256_setzero_pd();
  for (int64_t j = 0; j < k; ++j) {
    const double yj = y[j];
    if (!skip_on_matrix && yj == 0.0) continue;
    const double* mj = m + j * n;
    const __m256d yv = _mm256_set1_pd(yj);
    int64_t c = c0;
    for (; c + 4 <= c1; c += 4) {
      const __m256d mv = _mm256_loadu_pd(mj + c);
      const __m256d prod =
          skip_on_matrix
              ? _mm256_and_pd(_mm256_mul_pd(mv, yv),
                              _mm256_cmp_pd(mv, zero, _CMP_NEQ_UQ))
              : _mm256_mul_pd(yv, mv);
      _mm256_storeu_pd(out + c, _mm256_add_pd(_mm256_loadu_pd(out + c), prod));
    }
    for (; c < c1; ++c) {
      if (!skip_on_matrix) {
        out[c] += yj * mj[c];
      } else if (mj[c] != 0.0) {
        out[c] += mj[c] * yj;
      }
    }
  }
}
#endif  // REMAC_KERNEL_AVX2

}  // namespace

void RowDots(const double* m, int64_t rows, int64_t k, const double* x,
             bool skip_on_matrix, double* out) {
  ParallelForRows(rows, k, [&](int64_t r0, int64_t r1) {
    int64_t i = r0;
#if REMAC_KERNEL_AVX2
    if (KernelHasAvx2()) {
      for (; i + kDotRows <= r1; i += kDotRows) {
        RowDots4Avx2(m + i * k, k, x, k, skip_on_matrix, out + i);
      }
    }
#endif
    for (; i < r1; ++i) out[i] = RowDot(m + i * k, x, k, skip_on_matrix);
  });
}

void RowAxpy(const double* m, int64_t k, int64_t n, const double* y,
             bool skip_on_matrix, double* out) {
  // Parallel over output columns: each range streams its slice of every
  // row of m, so the per-cell j order never depends on the split.
  ParallelForRows(n, k, [&](int64_t c0, int64_t c1) {
#if REMAC_KERNEL_AVX2
    if (KernelHasAvx2()) {
      RowAxpyAvx2(m, k, n, y, skip_on_matrix, c0, c1, out);
      return;
    }
#endif
    for (int64_t j = 0; j < k; ++j) {
      const double yj = y[j];
      if (!skip_on_matrix && yj == 0.0) continue;
      const double* mj = m + j * n;
      for (int64_t c = c0; c < c1; ++c) {
        if (!skip_on_matrix) {
          out[c] += yj * mj[c];
        } else if (mj[c] != 0.0) {
          out[c] += mj[c] * yj;
        }
      }
    }
  });
}

void OuterFillRow(double u, const double* v, int64_t n, double* dst) {
  if (u == 0.0) {
    std::fill(dst, dst + n, 0.0);
    return;
  }
  for (int64_t x = 0; x < n; ++x) dst[x] = 0.0 + u * v[x];
}

int64_t OuterProductNnz(const double* u, int64_t m, const double* v,
                        int64_t n) {
  // Products of a finite non-zero u with v[x] vanish only when v[x] is
  // zero or the product underflows. Rounding is monotone in |v|, so if u
  // times the smallest finite non-zero |v| survives, every finite
  // non-zero v[x] does; NaN and ±Inf entries of v always survive.
  int64_t v_nonzero = 0;
  double v_min = std::numeric_limits<double>::infinity();
  for (int64_t x = 0; x < n; ++x) {
    if (v[x] == 0.0) continue;
    ++v_nonzero;
    const double mag = std::fabs(v[x]);
    if (std::isfinite(mag)) v_min = std::min(v_min, mag);
  }
  int64_t nnz = 0;
  for (int64_t i = 0; i < m; ++i) {
    const double ui = u[i];
    if (ui == 0.0) continue;
    if (!std::isfinite(ui)) {  // Inf * 0 and NaN * anything are NaN
      nnz += n;
      continue;
    }
    if (!std::isfinite(v_min) || std::fabs(ui) * v_min != 0.0) {
      nnz += v_nonzero;
      continue;
    }
    for (int64_t x = 0; x < n; ++x) nnz += ui * v[x] != 0.0 ? 1 : 0;
  }
  return nnz;
}

DenseMatrix OuterProduct(const double* u, int64_t m, const double* v,
                         int64_t n) {
  DenseMatrix c(m, n);
  double* pc = c.data();
  ParallelForRows(m, n, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) OuterFillRow(u[i], v, n, pc + i * n);
  });
  return c;
}

bool MultiplyDenseVectorShaped(const DenseMatrix& a, bool a_transposed,
                               const DenseMatrix& b, bool b_transposed,
                               Matrix* out) {
  // op(A): m x k, op(B): k x n. A unit dimension lets each operand be read
  // in its stored layout: a vector's data is contiguous whichever way it
  // is transposed, so t(v) operands need no copy.
  const int64_t m = a_transposed ? a.cols() : a.rows();
  const int64_t k = a_transposed ? a.rows() : a.cols();
  const int64_t n = b_transposed ? b.rows() : b.cols();
  if (k == 1) {  // u · vᵀ
    const int64_t nnz = OuterProductNnz(a.data(), m, b.data(), n);
    *out = Matrix::FromDense(OuterProduct(a.data(), m, b.data(), n), nnz);
    return true;
  }
  if (n == 1) {  // op(A) · x: the skip tests op(A)'s elements
    DenseMatrix c(m, 1);
    if (a_transposed) {
      RowAxpy(a.data(), k, m, b.data(), /*skip_on_matrix=*/true, c.data());
    } else {
      RowDots(a.data(), m, k, b.data(), /*skip_on_matrix=*/true, c.data());
    }
    *out = Matrix::FromDense(std::move(c));
    return true;
  }
  if (m == 1) {  // yᵀ · op(B): the skip tests y's elements
    DenseMatrix c(1, n);
    if (b_transposed) {
      RowDots(b.data(), n, k, a.data(), /*skip_on_matrix=*/false, c.data());
    } else {
      RowAxpy(b.data(), k, n, a.data(), /*skip_on_matrix=*/false, c.data());
    }
    *out = Matrix::FromDense(std::move(c));
    return true;
  }
  return false;
}

DenseMatrix MultiplyDenseDenseNaive(const DenseMatrix& a,
                                    const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  DenseMatrix c(m, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  ParallelForRows(m, n * std::max<int64_t>(1, k), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      const double* ai = pa + i * k;
      for (int64_t j = 0; j < k; ++j) {
        const double v = ai[j];
        if (v == 0.0) continue;
        const double* bj = pb + j * n;
        for (int64_t x = 0; x < n; ++x) ci[x] += v * bj[x];
      }
    }
  });
  return c;
}

DenseMatrix MultiplyDenseDenseBlocked(const DenseMatrix& a,
                                      const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  DenseMatrix c(m, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  Metrics().gemm_blocked->Add();
  const bool avx = KernelHasAvx2();
  // Column panels keep the active B slab (k x panel doubles) L2 resident
  // while the row blocks of this range sweep over it. The wider AVX2 tile
  // amortizes each B load over 4 rows, so it tolerates a wider panel.
  const int64_t panel = avx ? kGemmPanelCols : kGemmColBlock;
  ParallelForRows(m, n * std::max<int64_t>(1, k), [&](int64_t r0, int64_t r1) {
    for (int64_t x0 = 0; x0 < n; x0 += panel) {
      const int64_t xe = std::min(n, x0 + panel);
      int64_t i = r0;
#if REMAC_KERNEL_AVX2
      if (avx) {
        for (; i + 4 <= r1; i += 4) {
          const double* a0 = pa + i * k;
          int64_t x = x0;
          for (; x + 16 <= xe; x += 16) {
            MicroKernel4x16Avx2(a0, a0 + k, a0 + 2 * k, a0 + 3 * k,
                                /*stride=*/1, k, pb + x, n, pc + i * n + x,
                                pc + (i + 1) * n + x, pc + (i + 2) * n + x,
                                pc + (i + 3) * n + x);
          }
          for (; x < xe; ++x) {
            for (int64_t r = 0; r < 4; ++r) {
              pc[(i + r) * n + x] = DotStrided(a0 + r * k, 1, k, pb + x, n);
            }
          }
        }
      }
#endif
      // Scalar 2x8 path: all rows on non-AVX2 hardware, the <= 3
      // trailing rows of the range otherwise.
      for (; i + 2 <= r1; i += 2) {
        const double* a0 = pa + i * k;
        const double* a1 = a0 + k;
        int64_t x = x0;
        for (; x + 8 <= xe; x += 8) {
          MicroKernel2x8(a0, a1, /*stride=*/1, k, pb + x, n, pc + i * n + x,
                         pc + (i + 1) * n + x);
        }
        for (; x < xe; ++x) {
          pc[i * n + x] = DotStrided(a0, 1, k, pb + x, n);
          pc[(i + 1) * n + x] = DotStrided(a1, 1, k, pb + x, n);
        }
      }
      if (i < r1) {  // odd trailing row of this range
        const double* a0 = pa + i * k;
        for (int64_t x = x0; x < xe; ++x) {
          pc[i * n + x] = DotStrided(a0, 1, k, pb + x, n);
        }
      }
    }
  });
  return c;
}

}  // namespace internal
}  // namespace remac
