#include "matrix/kernel_internal.h"
#include "matrix/kernels.h"

/// Fused transpose-multiply kernels: AᵀB, ABᵀ and AᵀBᵀ for every
/// dense/CSR operand combination, so the executor never materializes a
/// transposed operand (ISSUE 5 tentpole; docs/INTERNALS.md Section 12).
///
/// Every kernel reproduces the exact floating-point operation sequence of
/// the materialize-then-multiply path it replaces: per output element the
/// shared-index terms are accumulated in ascending order with the same
/// v == 0.0 skip, so results are bitwise-identical (asserted by
/// tests/kernels_fused_test.cc across formats, shapes and thread counts).
/// Dense transposed operands are traversed in place; sparse transposed
/// operands go through a transient CscView (column-grouped index/value
/// arrays, identical ordering to TransposeCsr) so the shared sparse cores
/// run unchanged and row-parallelism is preserved.

namespace remac {

namespace internal {
namespace {

/// C = AᵀB, both dense. A: m x k, B: m x n, C: k x n. Four A columns at a
/// time are gathered once into a small reused pack buffer (4 x m doubles,
/// ~32 KB at m = 1024 — a GEMM packing panel, not a transpose of the
/// operand: the full t(A) copy and its O(m*k) footprint never exist).
/// Walking a raw column instead would touch a new page every j step
/// (stride = k doubles), and the resulting TLB pressure measured slower
/// than the materialized path. After packing, the streams are stride-1
/// and the shared micro-kernels run exactly as in the blocked GEMM, so
/// per output element the j-terms accumulate in ascending order with the
/// v == 0.0 skip — bitwise-identical to materialize-then-multiply.
DenseMatrix FusedDenseATB(const DenseMatrix& a, const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  DenseMatrix c(k, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  const bool avx = KernelHasAvx2();
  const int64_t panel = avx ? kGemmPanelCols : kGemmColBlock;
  ParallelForRows(k, n * std::max<int64_t>(1, m), [&](int64_t r0, int64_t r1) {
    std::vector<double> pack(static_cast<size_t>(4 * m));
    double* p0 = pack.data();
    int64_t i = r0;
    for (; i + 4 <= r1; i += 4) {
      for (int64_t r = 0; r < 4; ++r) {  // gather columns i .. i+3 once
        double* dst = p0 + r * m;
        const double* src = pa + i + r;
        for (int64_t j = 0; j < m; ++j) dst[j] = src[j * k];
      }
      for (int64_t x0 = 0; x0 < n; x0 += panel) {
        const int64_t xe = std::min(n, x0 + panel);
        int64_t x = x0;
#if REMAC_KERNEL_AVX2
        if (avx) {
          for (; x + 16 <= xe; x += 16) {
            MicroKernel4x16Avx2(p0, p0 + m, p0 + 2 * m, p0 + 3 * m,
                                /*stride=*/1, m, pb + x, n, pc + i * n + x,
                                pc + (i + 1) * n + x, pc + (i + 2) * n + x,
                                pc + (i + 3) * n + x);
          }
        } else
#endif
        {
          for (; x + 8 <= xe; x += 8) {
            MicroKernel2x8(p0, p0 + m, /*stride=*/1, m, pb + x, n,
                           pc + i * n + x, pc + (i + 1) * n + x);
            MicroKernel2x8(p0 + 2 * m, p0 + 3 * m, /*stride=*/1, m, pb + x, n,
                           pc + (i + 2) * n + x, pc + (i + 3) * n + x);
          }
        }
        for (; x < xe; ++x) {
          for (int64_t r = 0; r < 4; ++r) {
            pc[(i + r) * n + x] = DotStrided(p0 + r * m, 1, m, pb + x, n);
          }
        }
      }
    }
    for (; i < r1; ++i) {  // <= 3 trailing columns: strided dots
      const double* a0 = pa + i;
      for (int64_t x = 0; x < n; ++x) {
        pc[i * n + x] = DotStrided(a0, k, m, pb + x, n);
      }
    }
  });
  return c;
}

/// C = ABᵀ, both dense. A: m x k, B: n x k, C: m x n. Row-by-row dot
/// products; B rows are tiled so a panel stays cache-resident across the
/// rows of the thread's range.
DenseMatrix FusedDenseABT(const DenseMatrix& a, const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(m, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  constexpr int64_t kPanelRows = 32;  // B panel: 32 x k doubles
  ParallelForRows(m, n * std::max<int64_t>(1, k), [&](int64_t r0, int64_t r1) {
    for (int64_t x0 = 0; x0 < n; x0 += kPanelRows) {
      const int64_t xe = std::min(n, x0 + kPanelRows);
      for (int64_t i = r0; i < r1; ++i) {
        const double* ai = pa + i * k;
        double* ci = pc + i * n;
        for (int64_t x = x0; x < xe; ++x) {
          const double* bx = pb + x * k;
          double s = 0.0;
          for (int64_t j = 0; j < k; ++j) {
            const double v = ai[j];
            if (v == 0.0) continue;
            s += v * bx[j];
          }
          ci[x] = s;
        }
      }
    }
  });
  return c;
}

/// C = AᵀBᵀ, both dense. A: m x k, B: n x m, C: k x n. A's column i is
/// strided; the shapes that hit this path are rare (the optimizer
/// canonicalizes t(A) %*% t(B) into t(B %*% A) when profitable).
DenseMatrix FusedDenseATBT(const DenseMatrix& a, const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(k, n);
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  ParallelForRows(k, n * std::max<int64_t>(1, m), [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      for (int64_t x = 0; x < n; ++x) {
        const double* bx = pb + x * m;
        double s = 0.0;
        for (int64_t j = 0; j < m; ++j) {
          const double v = pa[j * k + i];
          if (v == 0.0) continue;
          s += v * bx[j];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀB with A sparse, B dense: A's column view stands in for the
/// transposed rows; the shared sparse-dense core runs unchanged.
DenseMatrix FusedSparseDenseATB(const CsrMatrix& a, const DenseMatrix& b) {
  const CscView at(a);
  return MultiplySparseDenseCore(at, a.cols(), b);
}

/// C = ABᵀ with A sparse (m x k), B dense (n x k): per output row the
/// stored entries of A's row gather from B's rows — no transpose copy.
DenseMatrix FusedSparseDenseABT(const CsrMatrix& a, const DenseMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(m, n);
  const double* pb = b.data();
  double* pc = c.data();
  const int64_t row_work =
      n * std::max<int64_t>(1, a.nnz() / std::max<int64_t>(1, m));
  ParallelForRows(m, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      const int64_t pa0 = a.row_ptr()[i];
      const int64_t pa1 = a.row_ptr()[i + 1];
      for (int64_t x = 0; x < n; ++x) {
        const double* bx = pb + x * k;
        double s = 0.0;
        for (int64_t p = pa0; p < pa1; ++p) {
          s += a.values()[p] * bx[a.col_idx()[p]];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀBᵀ with A sparse (m x k), B dense (n x m).
DenseMatrix FusedSparseDenseATBT(const CsrMatrix& a, const DenseMatrix& b) {
  const CscView at(a);
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(k, n);
  const double* pb = b.data();
  double* pc = c.data();
  const int64_t row_work =
      n * std::max<int64_t>(1, a.nnz() / std::max<int64_t>(1, k));
  ParallelForRows(k, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      const int64_t pa0 = at.begin(i);
      const int64_t pa1 = at.end(i);
      for (int64_t x = 0; x < n; ++x) {
        const double* bx = pb + x * m;
        double s = 0.0;
        for (int64_t p = pa0; p < pa1; ++p) {
          s += at.value(p) * bx[at.col(p)];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀB with A dense (m x k), B sparse (m x n), C: k x n. Walks the
/// shared index with strided A reads, blocked so A loads stay contiguous.
DenseMatrix FusedDenseSparseATB(const DenseMatrix& a, const CsrMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.cols();
  DenseMatrix c(k, n);
  const double* pa = a.data();
  double* pc = c.data();
  const int64_t row_work =
      std::max<int64_t>(m, b.nnz());  // each output row scans all of B
  ParallelForRows(k, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i0 = r0; i0 < r1; i0 += kGemmRowBlock) {
      const int64_t ib = std::min(kGemmRowBlock, r1 - i0);
      for (int64_t j = 0; j < m; ++j) {
        const double* aj = pa + j * k + i0;  // A(j, i0 .. i0+ib)
        const int64_t q0 = b.row_ptr()[j];
        const int64_t q1 = b.row_ptr()[j + 1];
        if (q0 == q1) continue;
        for (int64_t r = 0; r < ib; ++r) {
          const double v = aj[r];
          if (v == 0.0) continue;
          double* ci = pc + (i0 + r) * n;
          for (int64_t q = q0; q < q1; ++q) {
            ci[b.col_idx()[q]] += v * b.values()[q];
          }
        }
      }
    }
  });
  return c;
}

/// C = ABᵀ with A dense (m x k), B sparse (n x k), C: m x n. B's rows are
/// the columns of the materialized transpose: a sparse dot per cell.
DenseMatrix FusedDenseSparseABT(const DenseMatrix& a, const CsrMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(m, n);
  const double* pa = a.data();
  double* pc = c.data();
  const int64_t row_work = std::max<int64_t>(k, b.nnz());
  ParallelForRows(m, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      const double* ai = pa + i * k;
      double* ci = pc + i * n;
      for (int64_t x = 0; x < n; ++x) {
        double s = 0.0;
        for (int64_t p = b.row_ptr()[x]; p < b.row_ptr()[x + 1]; ++p) {
          const double v = ai[b.col_idx()[p]];
          if (v == 0.0) continue;
          s += v * b.values()[p];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

/// C = AᵀBᵀ with A dense (m x k), B sparse (n x m), C: k x n.
DenseMatrix FusedDenseSparseATBT(const DenseMatrix& a, const CsrMatrix& b) {
  const int64_t m = a.rows();
  const int64_t k = a.cols();
  const int64_t n = b.rows();
  DenseMatrix c(k, n);
  const double* pa = a.data();
  double* pc = c.data();
  const int64_t row_work = std::max<int64_t>(m, b.nnz());
  ParallelForRows(k, row_work, [&](int64_t r0, int64_t r1) {
    for (int64_t i = r0; i < r1; ++i) {
      double* ci = pc + i * n;
      for (int64_t x = 0; x < n; ++x) {
        double s = 0.0;
        for (int64_t p = b.row_ptr()[x]; p < b.row_ptr()[x + 1]; ++p) {
          const double v = pa[static_cast<int64_t>(b.col_idx()[p]) * k + i];
          if (v == 0.0) continue;
          s += v * b.values()[p];
        }
        ci[x] = s;
      }
    }
  });
  return c;
}

}  // namespace
}  // namespace internal

Result<Matrix> MultiplyTransposed(const Matrix& a, bool a_transposed,
                                  const Matrix& b, bool b_transposed) {
  using namespace internal;
  if (!a_transposed && !b_transposed) return Multiply(a, b);
  const int64_t ear = a_transposed ? a.cols() : a.rows();
  const int64_t eac = a_transposed ? a.rows() : a.cols();
  const int64_t ebr = b_transposed ? b.cols() : b.rows();
  const int64_t ebc = b_transposed ? b.rows() : b.cols();
  if (eac != ebr) return ShapeErrorDims("multiply", ear, eac, ebr, ebc);
  Metrics().multiplies->Add();
  Metrics().fused_transpose->Add();
  Metrics().fused_bytes_avoided->Add((a_transposed ? a.SizeInBytes() : 0) +
                                     (b_transposed ? b.SizeInBytes() : 0));
  if (a.is_dense() && b.is_dense()) {
    const DenseMatrix& da = a.dense();
    const DenseMatrix& db = b.dense();
    Matrix out;
    if (MultiplyDenseVectorShaped(da, a_transposed, db, b_transposed, &out)) {
      return out;
    }
    if (a_transposed && b_transposed) {
      return Matrix::FromDense(FusedDenseATBT(da, db));
    }
    if (a_transposed) return Matrix::FromDense(FusedDenseATB(da, db));
    return Matrix::FromDense(FusedDenseABT(da, db));
  }
  if (!a.is_dense() && b.is_dense()) {
    const CsrMatrix& sa = a.csr();
    const DenseMatrix& db = b.dense();
    if (a_transposed && b_transposed) {
      return Matrix::FromDense(FusedSparseDenseATBT(sa, db));
    }
    if (a_transposed) return Matrix::FromDense(FusedSparseDenseATB(sa, db));
    return Matrix::FromDense(FusedSparseDenseABT(sa, db));
  }
  if (a.is_dense() && !b.is_dense()) {
    const DenseMatrix& da = a.dense();
    const CsrMatrix& sb = b.csr();
    if (a_transposed && b_transposed) {
      return Matrix::FromDense(FusedDenseSparseATBT(da, sb));
    }
    if (a_transposed) return Matrix::FromDense(FusedDenseSparseATB(da, sb));
    return Matrix::FromDense(FusedDenseSparseABT(da, sb));
  }
  const CsrMatrix& sa = a.csr();
  const CsrMatrix& sb = b.csr();
  if (a_transposed && b_transposed) {
    const CscView at(sa);
    const CscView bt(sb);
    return Matrix::FromCsr(
        MultiplySparseSparseCore(at, bt, sa.cols(), sb.rows()));
  }
  if (a_transposed) {
    const CscView at(sa);
    return Matrix::FromCsr(
        MultiplySparseSparseCore(at, CsrRows(sb), sa.cols(), sb.cols()));
  }
  const CscView bt(sb);
  return Matrix::FromCsr(
      MultiplySparseSparseCore(CsrRows(sa), bt, sa.rows(), sb.rows()));
}

}  // namespace remac
