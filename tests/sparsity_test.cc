#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "sparsity/estimator.h"
#include "sparsity/sketch.h"

namespace remac {
namespace {

Matrix UniformSparse(int64_t rows, int64_t cols, double sp, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    if (rng.NextDouble() < sp) m.data()[i] = 1.0 + rng.NextDouble();
  }
  return Matrix::FromDense(std::move(m));
}

Matrix SkewedSparse(int64_t rows, int64_t cols, double sp, double zipf,
                    uint64_t seed) {
  DatasetSpec spec;
  spec.name = "skewed";
  spec.rows = rows;
  spec.cols = cols;
  spec.sparsity = sp;
  spec.zipf_rows = zipf;
  spec.zipf_cols = zipf;
  spec.seed = seed;
  return GenerateMatrix(spec);
}

MatrixStats StatsOf(const Matrix& m) {
  MatrixStats stats;
  stats.rows = m.rows();
  stats.cols = m.cols();
  stats.sparsity = m.Sparsity();
  const CsrMatrix csr = m.ToCsr();
  stats.row_counts = csr.RowCounts();
  stats.col_counts = csr.ColCounts();
  return stats;
}

double TrueProductSparsity(const Matrix& a, const Matrix& b) {
  const int64_t nnz = MultiplyNnzExact(a, b).value();
  return static_cast<double>(nnz) /
         (static_cast<double>(a.rows()) * static_cast<double>(b.cols()));
}

TEST(Sketch, FromMatrixExactCounts) {
  const Matrix m = UniformSparse(30, 20, 0.2, 1);
  auto sketch = MncSketch::FromMatrix(m);
  EXPECT_EQ(sketch->rows, 30);
  EXPECT_EQ(sketch->cols, 20);
  EXPECT_DOUBLE_EQ(sketch->nnz, static_cast<double>(m.nnz()));
  double row_sum = 0.0;
  for (double c : sketch->row_counts) row_sum += c;
  EXPECT_DOUBLE_EQ(row_sum, sketch->nnz);
}

TEST(Sketch, TransposeSwapsCounts) {
  const Matrix m = UniformSparse(10, 40, 0.1, 2);
  auto sketch = MncSketch::FromMatrix(m);
  auto t = SketchTranspose(*sketch);
  EXPECT_EQ(t->rows, 40);
  EXPECT_EQ(t->cols, 10);
  EXPECT_EQ(t->row_counts, sketch->col_counts);
  EXPECT_EQ(t->col_counts, sketch->row_counts);
}

TEST(Metadata, UniformMultiplyCloseToTruth) {
  const Matrix a = UniformSparse(200, 150, 0.05, 3);
  const Matrix b = UniformSparse(150, 180, 0.05, 4);
  const MetadataEstimator estimator;
  const NodeStats sa = estimator.LeafStats("a", StatsOf(a));
  const NodeStats sb = estimator.LeafStats("b", StatsOf(b));
  const NodeStats product = estimator.Multiply(sa, sb);
  const double truth = TrueProductSparsity(a, b);
  // On uniformly distributed non-zeros the metadata formula is accurate.
  EXPECT_NEAR(product.sparsity, truth, 0.05 * std::max(0.05, truth) + 0.02);
}

TEST(Metadata, ElementwiseRules) {
  const MetadataEstimator estimator;
  NodeStats a;
  a.rows = a.cols = 100;
  a.sparsity = 0.2;
  NodeStats b = a;
  b.sparsity = 0.3;
  EXPECT_NEAR(estimator.Elementwise(PlanOp::kAdd, a, b).sparsity,
              0.2 + 0.3 - 0.06, 1e-12);
  EXPECT_NEAR(estimator.Elementwise(PlanOp::kMul, a, b).sparsity, 0.06,
              1e-12);
  EXPECT_NEAR(estimator.Elementwise(PlanOp::kDiv, a, b).sparsity, 0.2,
              1e-12);
}

TEST(Metadata, ScalarBroadcastDensifiesAddition) {
  const MetadataEstimator estimator;
  NodeStats a;
  a.rows = a.cols = 10;
  a.sparsity = 0.1;
  EXPECT_DOUBLE_EQ(estimator.ScalarBroadcast(PlanOp::kAdd, a).sparsity, 1.0);
  EXPECT_DOUBLE_EQ(estimator.ScalarBroadcast(PlanOp::kMul, a).sparsity, 0.1);
}

TEST(Generators, GeneratorStats) {
  const MetadataEstimator estimator;
  EXPECT_DOUBLE_EQ(estimator.GeneratorStats(PlanOp::kEye, 10, 10).sparsity,
                   0.1);
  EXPECT_DOUBLE_EQ(estimator.GeneratorStats(PlanOp::kZeros, 5, 5).sparsity,
                   0.0);
  EXPECT_DOUBLE_EQ(estimator.GeneratorStats(PlanOp::kOnes, 5, 5).sparsity,
                   1.0);
}

/// MNC must beat metadata on skewed inputs (the paper's reason for
/// adopting it) while matching it on uniform inputs.
class EstimatorAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(EstimatorAccuracyTest, MncAtLeastAsGoodOnAtA) {
  const double zipf = GetParam();
  const Matrix a = zipf == 0.0 ? UniformSparse(2000, 200, 0.01, 5)
                               : SkewedSparse(2000, 200, 0.01, zipf, 5);
  const Matrix at = Transpose(a);
  const double truth = TrueProductSparsity(at, a);

  const MetadataEstimator md;
  const MncEstimator mnc;
  const MatrixStats stats = StatsOf(a);
  const double md_est =
      md.Multiply(md.Transpose(md.LeafStats("a", stats)),
                  md.LeafStats("a", stats))
          .sparsity;
  const double mnc_est =
      mnc.Multiply(mnc.Transpose(mnc.LeafStats("a", stats)),
                   mnc.LeafStats("a", stats))
          .sparsity;
  const double md_err = std::fabs(md_est - truth);
  const double mnc_err = std::fabs(mnc_est - truth);
  // MNC exploits the count structure: allow it a tiny slack on uniform
  // data, require clear dominance under skew.
  if (zipf >= 1.5) {
    EXPECT_LT(mnc_err, md_err)
        << "zipf=" << zipf << " truth=" << truth << " md=" << md_est
        << " mnc=" << mnc_est;
  } else {
    EXPECT_LE(mnc_err, md_err + 0.1);
  }
}

INSTANTIATE_TEST_SUITE_P(ZipfSweep, EstimatorAccuracyTest,
                         ::testing::Values(0.0, 1.5, 2.0, 2.5));

TEST(Exact, OracleMatchesTruth) {
  DataCatalog catalog;
  const Matrix a = UniformSparse(100, 60, 0.05, 6);
  const Matrix b = UniformSparse(60, 80, 0.05, 7);
  catalog.Register("a", a);
  catalog.Register("b", b);
  ExactEstimator exact;
  exact.AttachCatalog(&catalog);
  const NodeStats sa = exact.LeafStats("a", StatsOf(a));
  const NodeStats sb = exact.LeafStats("b", StatsOf(b));
  const NodeStats product = exact.Multiply(sa, sb);
  EXPECT_NEAR(product.sparsity, TrueProductSparsity(a, b), 1e-12);
}

TEST(Exact, DegradesGracefullyWithoutValues) {
  ExactEstimator exact;  // no catalog attached
  MatrixStats stats;
  stats.rows = 10;
  stats.cols = 10;
  stats.sparsity = 0.5;
  const NodeStats s = exact.LeafStats("nope", stats);
  EXPECT_DOUBLE_EQ(s.sparsity, 0.5);
  EXPECT_EQ(s.pattern, nullptr);
}

TEST(Sketch, AddUnionBound) {
  const Matrix a = UniformSparse(100, 100, 0.1, 8);
  const Matrix b = UniformSparse(100, 100, 0.1, 9);
  auto sum = SketchAdd(*MncSketch::FromMatrix(a), *MncSketch::FromMatrix(b));
  const double truth = Add(a, b).value().Sparsity();
  EXPECT_NEAR(sum->Sparsity(), truth, 0.03);
}

TEST(Sketch, ElemMulIntersection) {
  const Matrix a = UniformSparse(100, 100, 0.3, 10);
  const Matrix b = UniformSparse(100, 100, 0.3, 11);
  auto prod =
      SketchElemMul(*MncSketch::FromMatrix(a), *MncSketch::FromMatrix(b));
  const double truth = ElementwiseMultiply(a, b).value().Sparsity();
  EXPECT_NEAR(prod->Sparsity(), truth, 0.03);
}


// --- SketchMultiply bitwise oracle -----------------------------------------
//
// The per-row formula SketchMultiply used before it memoized per distinct
// count, kept verbatim as a reference: every output row and column runs its
// own bucket sum (rows memoized only across equal *consecutive* counts).
// The production version must reproduce it bit for bit, since plans,
// simulated times and results all hang off these sketches.

double RefSum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

void RefScaleTo(std::vector<double>* counts, double target_total, double cap) {
  double total = RefSum(*counts);
  if (total <= 0.0) return;
  double factor = target_total / total;
  double overflow = 0.0;
  double headroom_total = 0.0;
  for (double& c : *counts) {
    c *= factor;
    if (c > cap) {
      overflow += c - cap;
      c = cap;
    } else {
      headroom_total += cap - c;
    }
  }
  if (overflow > 0.0 && headroom_total > 0.0) {
    const double redistribute = std::min(1.0, overflow / headroom_total);
    for (double& c : *counts) c += (cap - c) * redistribute;
  }
}

std::vector<std::pair<double, double>> RefBucketCounts(
    const std::vector<double>& counts, int max_buckets = 64) {
  std::vector<double> sorted;
  constexpr size_t kMaxSample = 4096;
  if (counts.size() > kMaxSample) {
    const size_t stride = counts.size() / kMaxSample;
    sorted.reserve(kMaxSample + 1);
    for (size_t i = 0; i < counts.size(); i += stride) {
      sorted.push_back(counts[i]);
    }
  } else {
    sorted = counts;
  }
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> buckets;
  const size_t n = sorted.size();
  if (n == 0) return buckets;
  const size_t per = std::max<size_t>(1, n / static_cast<size_t>(max_buckets));
  size_t i = 0;
  while (i < n) {
    const size_t end = std::min(n, i + per);
    double sum = 0.0;
    for (size_t k = i; k < end; ++k) sum += sorted[k];
    buckets.emplace_back(sum / static_cast<double>(end - i),
                         static_cast<double>(end - i));
    i = end;
  }
  return buckets;
}

MncSketch RefSketchMultiply(const MncSketch& a, const MncSketch& b) {
  MncSketch out;
  out.rows = a.rows;
  out.cols = b.cols;
  const double cells =
      static_cast<double>(a.rows) * static_cast<double>(b.cols);
  if (cells <= 0.0 || a.nnz <= 0.0 || b.nnz <= 0.0) {
    out.nnz = 0;
    out.row_counts.assign(static_cast<size_t>(a.rows), 0.0);
    out.col_counts.assign(static_cast<size_t>(b.cols), 0.0);
    return out;
  }
  double total_products = 0.0;
  const size_t inner = std::min(a.col_counts.size(), b.row_counts.size());
  for (size_t j = 0; j < inner; ++j) {
    total_products += a.col_counts[j] * b.row_counts[j];
  }
  if (total_products <= 0.0) {
    out.nnz = 0;
    out.row_counts.assign(static_cast<size_t>(a.rows), 0.0);
    out.col_counts.assign(static_cast<size_t>(b.cols), 0.0);
    return out;
  }
  const double alpha = total_products / (a.nnz * b.nnz);
  const auto col_buckets = RefBucketCounts(b.col_counts);
  out.row_counts.resize(a.row_counts.size());
  double nnz = 0.0;
  double memo_key = -1.0;
  double memo_value = 0.0;
  for (size_t i = 0; i < a.row_counts.size(); ++i) {
    const double r = a.row_counts[i];
    if (r != memo_key) {
      double expected = 0.0;
      for (const auto& [value, count] : col_buckets) {
        expected += count * -std::expm1(-alpha * r * value);
      }
      memo_key = r;
      memo_value = expected;
    }
    out.row_counts[i] = memo_value;
    nnz += memo_value;
  }
  out.nnz = nnz;
  const auto row_buckets = RefBucketCounts(a.row_counts);
  out.col_counts.resize(b.col_counts.size());
  for (size_t k = 0; k < b.col_counts.size(); ++k) {
    double expected = 0.0;
    for (const auto& [value, count] : row_buckets) {
      expected += count * -std::expm1(-alpha * value * b.col_counts[k]);
    }
    out.col_counts[k] = expected;
  }
  RefScaleTo(&out.col_counts, out.nnz, static_cast<double>(a.rows));
  return out;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> bits;
  bits.reserve(v.size());
  for (double x : v) bits.push_back(std::bit_cast<uint64_t>(x));
  return bits;
}

/// SketchMultiply(a, b) equals the reference in every bit.
void ExpectMultiplyMatchesReference(const MncSketch& a, const MncSketch& b) {
  const auto got = SketchMultiply(a, b);
  const MncSketch want = RefSketchMultiply(a, b);
  EXPECT_EQ(got->rows, want.rows);
  EXPECT_EQ(got->cols, want.cols);
  EXPECT_EQ(std::bit_cast<uint64_t>(got->nnz),
            std::bit_cast<uint64_t>(want.nnz))
      << got->nnz << " vs " << want.nnz;
  EXPECT_EQ(Bits(got->row_counts), Bits(want.row_counts));
  EXPECT_EQ(Bits(got->col_counts), Bits(want.col_counts));
}

/// A sketch with the given count vectors; nnz is the row-count total.
MncSketch SketchOfCounts(std::vector<double> row_counts,
                         std::vector<double> col_counts) {
  MncSketch s;
  s.rows = static_cast<int64_t>(row_counts.size());
  s.cols = static_cast<int64_t>(col_counts.size());
  s.nnz = RefSum(row_counts);
  s.row_counts = std::move(row_counts);
  s.col_counts = std::move(col_counts);
  return s;
}

TEST(SketchMultiplyOracle, SkewedWithRepeatedNonAdjacentCounts) {
  // Zipf-skewed leaves: few distinct counts, repeated all over the vector.
  // 5000 rows also exercises BucketCounts' stride sampling.
  const auto a = MncSketch::FromMatrix(SkewedSparse(5000, 300, 0.01, 1.1, 21));
  const auto b = MncSketch::FromMatrix(SkewedSparse(300, 700, 0.02, 1.3, 22));
  const auto at = SketchTranspose(*a);
  ExpectMultiplyMatchesReference(*a, *b);
  ExpectMultiplyMatchesReference(*at, *a);  // A'A
  ExpectMultiplyMatchesReference(*a, *at);  // AA': 5000 columns
  // Propagated (fractional) counts as inputs, as inside a chain.
  const auto ata = SketchMultiply(*at, *a);
  ExpectMultiplyMatchesReference(*a, *ata);
  ExpectMultiplyMatchesReference(*ata, *at);
  // Hand-made interleaving: equal counts never adjacent.
  std::vector<double> rows;
  std::vector<double> cols;
  for (int i = 0; i < 600; ++i) rows.push_back(1.0 + (i * 7) % 5);
  for (int i = 0; i < 90; ++i) cols.push_back(2.0 + (i * 3) % 4);
  const MncSketch h = SketchOfCounts(rows, cols);
  const MncSketch ht = *SketchTranspose(h);
  ExpectMultiplyMatchesReference(h, ht);
  ExpectMultiplyMatchesReference(ht, h);
}

TEST(SketchMultiplyOracle, ZeroCountsDegenerateShapesAndUniform) {
  // Zero rows and columns mixed with non-zero ones.
  const MncSketch z = SketchOfCounts({0, 3, 0, 2, 3, 0, 1, 0},
                                     {2, 0, 0, 4, 3, 0});
  ExpectMultiplyMatchesReference(z, *SketchTranspose(z));
  ExpectMultiplyMatchesReference(*SketchTranspose(z), z);
  // All-zero operand.
  const MncSketch empty = SketchOfCounts({0, 0, 0}, {0, 0, 0, 0, 0, 0, 0, 0});
  ExpectMultiplyMatchesReference(empty, z);
  // 1 x n times n x 1 (inner product) and n x 1 times 1 x n (outer).
  const MncSketch row = SketchOfCounts({5}, {1, 0, 1, 1, 0, 1, 1});
  const MncSketch col = SketchOfCounts({1, 1, 0, 1, 1, 0, 1},
                                       {5});
  ExpectMultiplyMatchesReference(row, col);
  ExpectMultiplyMatchesReference(col, row);
  // Uniform sketches: one count repeated, dense and sparse.
  const auto u1 = MncSketch::Uniform(400, 50, 0.05);
  const auto u2 = MncSketch::Uniform(50, 300, 1.0);
  ExpectMultiplyMatchesReference(*u1, *u2);
  ExpectMultiplyMatchesReference(*u2, *SketchTranspose(*u2));
  ExpectMultiplyMatchesReference(*MncSketch::Uniform(1, 50, 0.2), *u2);
  ExpectMultiplyMatchesReference(*u1, *MncSketch::Uniform(50, 1, 0.3));
}

TEST(SketchMultiplyOracle, AllDistinctCounts) {
  std::vector<double> rows;
  std::vector<double> cols;
  for (int i = 0; i < 700; ++i) rows.push_back(0.5 + 0.37 * i);
  for (int i = 0; i < 120; ++i) cols.push_back(1.25 + 1.9 * (119 - i));
  const MncSketch d = SketchOfCounts(rows, cols);
  const MncSketch dt = *SketchTranspose(d);
  ExpectMultiplyMatchesReference(d, dt);
  ExpectMultiplyMatchesReference(dt, d);
}

}  // namespace
}  // namespace remac
