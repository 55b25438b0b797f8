#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "matrix/fused_tape.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"

/// Bitwise-identity tests for the kernel layer (ISSUE 5): fused
/// transpose-multiply vs materialize-then-multiply for every format combo
/// and transpose pattern, blocked GEMM vs the naive reference, and
/// thread-count determinism for the parallel/chunked kernels. Suites are
/// named Kernels* so scripts/check.sh runs them under TSan/ASan/UBSan.

namespace remac {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, double sparsity,
                    uint64_t seed, bool force_dense_format) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (rng.NextDouble() < sparsity) m.data()[i] = rng.NextGaussian();
  }
  if (force_dense_format) return Matrix::WrapDense(std::move(m));
  return Matrix::WrapCsr(CsrMatrix::FromDense(m));
}

/// Exact equality: same storage format, same structure, and bit-identical
/// value arrays (memcmp, so -0.0 vs 0.0 or differing NaN payloads fail).
::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.is_dense() != b.is_dense()) {
    return ::testing::AssertionFailure()
           << "format mismatch: " << (a.is_dense() ? "dense" : "csr") << " vs "
           << (b.is_dense() ? "dense" : "csr");
  }
  if (a.is_dense()) {
    const int64_t bytes = a.dense().size() * static_cast<int64_t>(sizeof(double));
    if (bytes > 0 &&
        std::memcmp(a.dense().data(), b.dense().data(), bytes) != 0) {
      return ::testing::AssertionFailure() << "dense payload differs";
    }
    return ::testing::AssertionSuccess();
  }
  const CsrMatrix& sa = a.csr();
  const CsrMatrix& sb = b.csr();
  if (sa.row_ptr() != sb.row_ptr()) {
    return ::testing::AssertionFailure() << "row_ptr differs";
  }
  if (sa.col_idx() != sb.col_idx()) {
    return ::testing::AssertionFailure() << "col_idx differs";
  }
  if (sa.nnz() > 0 && std::memcmp(sa.values().data(), sb.values().data(),
                                  sa.nnz() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "csr values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Restores the hardware-default thread count even on test failure.
struct ThreadGuard {
  ~ThreadGuard() { SetKernelThreads(0); }
};

/// Fused vs materialized across all 4 format combos x 3 transpose
/// patterns x {1, 2, 8} threads.
class KernelsFusedTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int>> {};

void CheckFusedAgainstMaterialized(const Matrix& a, bool a_t, const Matrix& b,
                                   bool b_t) {
  const Matrix ea = a_t ? Transpose(a) : a;
  const Matrix eb = b_t ? Transpose(b) : b;
  auto expected = Multiply(ea, eb);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  auto fused = MultiplyTransposed(a, a_t, b, b_t);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();
  EXPECT_TRUE(BitwiseEqual(*fused, *expected))
      << "a_t=" << a_t << " b_t=" << b_t << " a_dense=" << a.is_dense()
      << " b_dense=" << b.is_dense();
}

TEST_P(KernelsFusedTest, BitwiseMatchesMaterializedMultiply) {
  const auto [a_dense, b_dense, threads] = GetParam();
  ThreadGuard guard;
  SetKernelThreads(threads);
  // Effective product: (17 x 23) * (23 x 11).
  const int64_t m = 17, k = 23, n = 11;
  // AᵀB: stored A is k x m.
  CheckFusedAgainstMaterialized(RandomMatrix(k, m, 0.35, 21, a_dense), true,
                                RandomMatrix(k, n, 0.35, 22, b_dense), false);
  // ABᵀ: stored B is n x k.
  CheckFusedAgainstMaterialized(RandomMatrix(m, k, 0.35, 23, a_dense), false,
                                RandomMatrix(n, k, 0.35, 24, b_dense), true);
  // AᵀBᵀ: both stored transposed.
  CheckFusedAgainstMaterialized(RandomMatrix(k, m, 0.35, 25, a_dense), true,
                                RandomMatrix(n, k, 0.35, 26, b_dense), true);
}

TEST_P(KernelsFusedTest, EdgeShapes) {
  const auto [a_dense, b_dense, threads] = GetParam();
  ThreadGuard guard;
  SetKernelThreads(threads);
  // Empty output rows: effective (0 x 5) * (5 x 3).
  CheckFusedAgainstMaterialized(RandomMatrix(5, 0, 1.0, 31, a_dense), true,
                                RandomMatrix(5, 3, 1.0, 32, b_dense), false);
  // Empty shared dimension: effective (4 x 0) * (0 x 3).
  CheckFusedAgainstMaterialized(RandomMatrix(0, 4, 1.0, 33, a_dense), true,
                                RandomMatrix(3, 0, 1.0, 34, b_dense), true);
  // Single row / column: effective (1 x 7) * (7 x 1).
  CheckFusedAgainstMaterialized(RandomMatrix(7, 1, 0.8, 35, a_dense), true,
                                RandomMatrix(1, 7, 0.8, 36, b_dense), true);
  // 1 x N times N x N (vector-matrix through the fused path).
  CheckFusedAgainstMaterialized(RandomMatrix(1, 9, 0.8, 37, a_dense), false,
                                RandomMatrix(9, 9, 0.5, 38, b_dense), true);
}

INSTANTIATE_TEST_SUITE_P(AllFormatsAndThreads, KernelsFusedTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Values(1, 2, 8)));

TEST(KernelsFused, DimensionMismatchUsesEffectiveDims) {
  const Matrix a = RandomMatrix(3, 4, 1.0, 41, true);
  const Matrix b = RandomMatrix(3, 4, 1.0, 42, true);
  // Aᵀ (4 x 3) times B (3 x 4) is valid; A times B is not.
  EXPECT_TRUE(MultiplyTransposed(a, true, b, false).ok());
  EXPECT_EQ(MultiplyTransposed(a, false, b, false).status().code(),
            StatusCode::kDimensionMismatch);
  // Aᵀ (4 x 3) times Bᵀ (4 x 3) is not valid.
  EXPECT_EQ(MultiplyTransposed(a, true, b, true).status().code(),
            StatusCode::kDimensionMismatch);
}

TEST(KernelsFused, NoTransposeFlagsDelegatesToMultiply) {
  const Matrix a = RandomMatrix(6, 7, 0.5, 43, true);
  const Matrix b = RandomMatrix(7, 5, 0.5, 44, false);
  auto plain = Multiply(a, b);
  auto fused = MultiplyTransposed(a, false, b, false);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(BitwiseEqual(*fused, *plain));
}

TEST(KernelsFused, BumpsFusedMetricsAndAvoidsTransposeKernel) {
  auto& reg = MetricsRegistry::Global();
  Counter* fused = reg.GetCounter("remac.kernel.fused_transpose");
  Counter* transposes = reg.GetCounter("remac.kernel.transposes");
  Counter* bytes_avoided = reg.GetCounter("remac.kernel.fused_bytes_avoided");
  const Matrix a = RandomMatrix(40, 30, 0.5, 45, true);
  const Matrix b = RandomMatrix(40, 20, 0.5, 46, true);
  const int64_t fused_before = fused->Value();
  const int64_t transposes_before = transposes->Value();
  const int64_t bytes_before = bytes_avoided->Value();
  ASSERT_TRUE(MultiplyTransposed(a, true, b, false).ok());
  EXPECT_EQ(fused->Value(), fused_before + 1);
  EXPECT_EQ(transposes->Value(), transposes_before);
  EXPECT_EQ(bytes_avoided->Value() - bytes_before,
            static_cast<int64_t>(a.SizeInBytes()));
}

/// Blocked GEMM must be bit-identical to the naive reference, which is in
/// turn bit-identical to a textbook triple loop (per output element the
/// shared index ascends and the accumulator starts at +0.0).
class KernelsBlockedGemmTest : public ::testing::TestWithParam<int> {};

TEST_P(KernelsBlockedGemmTest, BitwiseMatchesNaive) {
  ThreadGuard guard;
  SetKernelThreads(GetParam());
  // Shapes straddling the MR=8 / NC=64 tile boundaries, with zeros so the
  // v == 0.0 skip path is exercised.
  const struct {
    int64_t m, k, n;
  } shapes[] = {{150, 70, 130}, {8, 64, 64}, {9, 65, 65}, {1, 40, 200}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 0.6, 51 + s.m, true);
    const Matrix b = RandomMatrix(s.k, s.n, 0.6, 52 + s.n, true);
    auto blocked = Multiply(a, b);
    auto naive = MultiplyReferenceNaive(a, b);
    ASSERT_TRUE(blocked.ok());
    ASSERT_TRUE(naive.ok());
    EXPECT_TRUE(BitwiseEqual(*blocked, *naive))
        << s.m << "x" << s.k << "x" << s.n;
    // Cross-check the reference against a textbook triple loop.
    DenseMatrix c(s.m, s.n);
    const DenseMatrix da = a.ToDense();
    const DenseMatrix db = b.ToDense();
    for (int64_t i = 0; i < s.m; ++i) {
      for (int64_t j = 0; j < s.k; ++j) {
        const double v = da.At(i, j);
        if (v == 0.0) continue;
        for (int64_t x = 0; x < s.n; ++x) c.At(i, x) += v * db.At(j, x);
      }
    }
    EXPECT_TRUE(BitwiseEqual(*naive, Matrix::WrapDense(std::move(c))));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelsBlockedGemmTest,
                         ::testing::Values(1, 2, 8));

/// Every parallelized kernel must produce the same bits at any thread
/// count (chunk boundaries depend only on KernelThreads(); reductions use
/// fixed-size chunks folded in order).
TEST(KernelsDeterminism, ThreadCountInvariance) {
  ThreadGuard guard;
  // Big enough to parallelize and to span many reduction chunks.
  const Matrix dense = RandomMatrix(300, 500, 0.7, 61, true);
  const Matrix sparse = RandomMatrix(300, 500, 0.05, 62, false);
  const Matrix dense2 = RandomMatrix(300, 500, 0.7, 63, true);

  SetKernelThreads(1);
  const double sum1 = SumAll(dense);
  const double norm1 = FrobeniusNorm(dense);
  const double ssum1 = SumAll(sparse);
  const Matrix t1 = Transpose(dense);
  const Matrix add1 = Add(dense, dense2).value();
  const Matrix scale1 = ScalarMultiply(dense, 1.7);
  const Matrix shift1 = ScalarAdd(sparse, 0.25);

  for (int threads : {2, 8}) {
    SetKernelThreads(threads);
    EXPECT_EQ(SumAll(dense), sum1) << threads;
    EXPECT_EQ(FrobeniusNorm(dense), norm1) << threads;
    EXPECT_EQ(SumAll(sparse), ssum1) << threads;
    EXPECT_TRUE(BitwiseEqual(Transpose(dense), t1)) << threads;
    EXPECT_TRUE(BitwiseEqual(Add(dense, dense2).value(), add1)) << threads;
    EXPECT_TRUE(BitwiseEqual(ScalarMultiply(dense, 1.7), scale1)) << threads;
    EXPECT_TRUE(BitwiseEqual(ScalarAdd(sparse, 0.25), shift1)) << threads;
  }
}

TEST(KernelsDeterminism, WideShortShapesStillExact) {
  ThreadGuard guard;
  // 20 x 30000: the old rows < 256 cutoff kept this serial; the
  // element-count heuristic parallelizes it. Results must not change.
  const Matrix a = RandomMatrix(20, 30000, 0.9, 64, true);
  const Matrix b = RandomMatrix(20, 30000, 0.9, 65, true);
  SetKernelThreads(1);
  const Matrix sum_serial = Add(a, b).value();
  const double norm_serial = FrobeniusNorm(a);
  SetKernelThreads(8);
  EXPECT_TRUE(BitwiseEqual(Add(a, b).value(), sum_serial));
  EXPECT_EQ(FrobeniusNorm(a), norm_serial);
}

TEST(KernelsDeterminism, SparseMultiplyThreadInvariant) {
  ThreadGuard guard;
  const Matrix a = RandomMatrix(400, 300, 0.05, 66, false);
  const Matrix b = RandomMatrix(300, 350, 0.05, 67, false);
  SetKernelThreads(1);
  const Matrix serial = Multiply(a, b).value();
  for (int threads : {2, 8}) {
    SetKernelThreads(threads);
    EXPECT_TRUE(BitwiseEqual(Multiply(a, b).value(), serial)) << threads;
  }
}

// ---------------------------------------------------------------------------
// Vector-shaped kernels (GEMV, GEVM, outer product) vs the naive oracle
// ---------------------------------------------------------------------------

/// Value mix of the vector-kernel oracle. kSpecial: zeros, -0.0,
/// subnormals and Gaussians, plus about two NaN, +Inf and -Inf cells per
/// operand (rare enough that most output cells stay finite). kTiny:
/// Gaussians scaled to 1e-162, so products underflow to zero or to
/// subnormals.
enum class ValueMix { kSpecial, kTiny };

Matrix MixedDense(int64_t rows, int64_t cols, ValueMix mix, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  const double rare = 2.0 / static_cast<double>(std::max<int64_t>(1, m.size()));
  for (int64_t i = 0; i < m.size(); ++i) {
    const double g = rng.NextGaussian();
    if (mix == ValueMix::kTiny) {
      m.data()[i] = rng.NextDouble() < 0.2 ? 0.0 : g * 1e-162;
      continue;
    }
    const double pick = rng.NextDouble();
    double v = g;
    if (pick < 0.25) {
      v = 0.0;
    } else if (pick < 0.30) {
      v = -0.0;
    } else if (pick < 0.35) {
      v = g * 1e-310;  // subnormal
    } else if (pick < 0.35 + rare) {
      v = std::numeric_limits<double>::quiet_NaN();
    } else if (pick < 0.35 + 2 * rare) {
      v = std::numeric_limits<double>::infinity();
    } else if (pick < 0.35 + 3 * rare) {
      v = -std::numeric_limits<double>::infinity();
    }
    m.data()[i] = v;
  }
  return Matrix::WrapDense(std::move(m));
}

/// BitwiseEqual where any two NaNs match: IEEE 754 leaves the payload of
/// a NaN produced from two NaN operands unspecified, and the compiler may
/// commute the operands of a scalar add.
::testing::AssertionResult BitwiseEqualNanAware(const Matrix& a,
                                                const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.is_dense() != b.is_dense()) {
    return ::testing::AssertionFailure() << "format mismatch";
  }
  if (a.nnz() != b.nnz()) {
    return ::testing::AssertionFailure()
           << "nnz " << a.nnz() << " vs " << b.nnz();
  }
  const DenseMatrix da = a.ToDense();
  const DenseMatrix db = b.ToDense();
  for (int64_t i = 0; i < da.size(); ++i) {
    const double x = da.data()[i];
    const double y = db.data()[i];
    if (std::isnan(x) && std::isnan(y)) continue;
    if (std::memcmp(&x, &y, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "cell " << i << ": " << x << " vs " << y;
    }
  }
  return ::testing::AssertionSuccess();
}

class KernelsVectorShapedTest
    : public ::testing::TestWithParam<std::tuple<ValueMix, int>> {};

/// Every vector-shaped orientation against materialize-then-naive, for
/// m, n in {1, 3, 17, 870}: A·x, yᵀ·B, t(v)·B, u·t(v) (and u·w with w a
/// row), t(X)·v, A·t(w) and t(y)·t(B).
TEST_P(KernelsVectorShapedTest, BitwiseMatchesNaiveOracle) {
  ThreadGuard guard;
  const ValueMix mix = std::get<0>(GetParam());
  SetKernelThreads(std::get<1>(GetParam()));
  auto naive = [](const Matrix& a, const Matrix& b) {
    return MultiplyReferenceNaive(a, b).value();
  };
  const int64_t sizes[] = {1, 3, 17, 870};
  uint64_t seed = 900;
  for (const int64_t m : sizes) {
    for (const int64_t n : sizes) {
      const std::string at = std::to_string(m) + "x" + std::to_string(n);
      const Matrix a = MixedDense(m, n, mix, ++seed);      // m x n
      const Matrix bt = MixedDense(n, m, mix, ++seed);     // n x m
      const Matrix col_m = MixedDense(m, 1, mix, ++seed);  // m x 1
      const Matrix col_n = MixedDense(n, 1, mix, ++seed);  // n x 1
      const Matrix row_m = MixedDense(1, m, mix, ++seed);  // 1 x m
      const Matrix row_n = MixedDense(1, n, mix, ++seed);  // 1 x n
      EXPECT_TRUE(BitwiseEqualNanAware(Multiply(a, col_n).value(),
                                       naive(a, col_n)))
          << "A·x " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(Multiply(row_m, a).value(),
                                       naive(row_m, a)))
          << "yᵀ·B " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(
          MultiplyTransposed(col_m, true, a, false).value(),
          naive(Transpose(col_m), a)))
          << "t(v)·B " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(
          MultiplyTransposed(col_m, false, col_n, true).value(),
          naive(col_m, Transpose(col_n))))
          << "u·t(v) " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(Multiply(col_m, row_n).value(),
                                       naive(col_m, row_n)))
          << "u·w " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(
          MultiplyTransposed(a, true, col_m, false).value(),
          naive(Transpose(a), col_m)))
          << "t(X)·v " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(
          MultiplyTransposed(a, false, row_n, true).value(),
          naive(a, Transpose(row_n))))
          << "A·t(w) " << at;
      EXPECT_TRUE(BitwiseEqualNanAware(
          MultiplyTransposed(col_m, true, bt, true).value(),
          naive(Transpose(col_m), Transpose(bt))))
          << "t(y)·t(B) " << at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsMixAndThreads, KernelsVectorShapedTest,
    ::testing::Combine(::testing::Values(ValueMix::kSpecial, ValueMix::kTiny),
                       ::testing::Values(1, 2, 8)));

/// The O(m + n) outer-product nnz count agrees with the materialized
/// product, including rows whose products underflow to zero.
TEST(KernelsVectorShaped, OuterProductNnzIsExact) {
  for (const ValueMix mix : {ValueMix::kSpecial, ValueMix::kTiny}) {
    for (const int64_t m : {1, 3, 17, 870}) {
      const Matrix u = MixedDense(m, 1, mix, 950 + m);
      const Matrix v = MixedDense(1, 170, mix, 960 + m);
      const Matrix product = MultiplyReferenceNaive(u, v).value();
      EXPECT_EQ(OuterProductNnz(u, v), product.nnz()) << m;
    }
  }
  // A row that only partly underflows: 1e-160 * [1e-170, 1, 0, -1e-200].
  DenseMatrix u(2, 1);
  u.At(0, 0) = 1e-160;
  u.At(1, 0) = -2.0;
  DenseMatrix v(4, 1);
  v.At(0, 0) = 1e-170;
  v.At(1, 0) = 1.0;
  v.At(3, 0) = -1e-200;
  EXPECT_EQ(OuterProductNnz(Matrix::WrapDense(u), Matrix::WrapDense(v)),
            1 + 3);
}

/// End-to-end: a t(X) %*% X script goes through the executor's transpose
/// unwrapping into the fused kernels — zero transpose materializations.
TEST(KernelsExecutorFusion, ScriptNeverMaterializesTranspose) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "X";
  spec.rows = 60;
  spec.cols = 8;
  spec.sparsity = 0.6;
  spec.seed = 71;
  ASSERT_TRUE(RegisterDataset(&catalog, spec).ok());
  auto program = CompileScript("X = read(\"X\");\nG = t(X) %*% X;\n", catalog);
  ASSERT_TRUE(program.ok()) << program.status().ToString();

  auto& reg = MetricsRegistry::Global();
  Counter* fused = reg.GetCounter("remac.kernel.fused_transpose");
  Counter* transposes = reg.GetCounter("remac.kernel.transposes");
  const int64_t fused_before = fused->Value();
  const int64_t transposes_before = transposes->Value();

  Executor executor(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor.Run(program->statements, 100).ok());

  EXPECT_GE(fused->Value(), fused_before + 1);
  EXPECT_EQ(transposes->Value(), transposes_before);

  // And the fused result matches the explicitly materialized product.
  auto g = executor.Get("G");
  ASSERT_TRUE(g.ok());
  auto program2 = CompileScript(
      "X = read(\"X\");\nT = t(X);\nG2 = T %*% X;\n", catalog);
  ASSERT_TRUE(program2.ok());
  Executor executor2(ClusterModel(), &catalog, nullptr);
  ASSERT_TRUE(executor2.Run(program2->statements, 100).ok());
  auto g2 = executor2.Get("G2");
  ASSERT_TRUE(g2.ok());
  EXPECT_TRUE(BitwiseEqual(g->matrix, g2->matrix));
}

}  // namespace
}  // namespace remac
