#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/scripts.h"
#include "baselines/engine_modes.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "data/generators.h"
#include "matrix/fused_tape.h"
#include "matrix/kernels.h"
#include "obs/metrics.h"
#include "plan/fusion.h"
#include "runtime/program_runner.h"
#include "service/matcache/intermediate_key.h"

/// Elementwise-fusion tests (ISSUE 10): the tape interpreter is
/// bitwise-identical to the unfused kernel sequence, the plan pass fuses
/// exactly the maximal same-shape elementwise regions (and nothing across
/// barriers), results are invariant under thread count and the
/// fuse_elementwise flag, and the executor's buffer-steal path plus the
/// remac.fusion.* counters fire. Suites are named Fusion* so
/// scripts/check.sh runs them under TSan/ASan/UBSan.

namespace remac {
namespace {

Matrix RandomDense(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.NextGaussian();
  return Matrix::WrapDense(std::move(m));
}

/// Exact same-format equality (memcmp on the payload).
::testing::AssertionResult BitwiseEqual(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  if (a.is_dense() != b.is_dense()) {
    return ::testing::AssertionFailure() << "format mismatch";
  }
  if (a.is_dense()) {
    const int64_t bytes =
        a.dense().size() * static_cast<int64_t>(sizeof(double));
    if (bytes > 0 &&
        std::memcmp(a.dense().data(), b.dense().data(), bytes) != 0) {
      return ::testing::AssertionFailure() << "dense payload differs";
    }
    return ::testing::AssertionSuccess();
  }
  const CsrMatrix& sa = a.csr();
  const CsrMatrix& sb = b.csr();
  if (sa.row_ptr() != sb.row_ptr() || sa.col_idx() != sb.col_idx()) {
    return ::testing::AssertionFailure() << "csr structure differs";
  }
  if (sa.nnz() > 0 && std::memcmp(sa.values().data(), sb.values().data(),
                                  sa.nnz() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "csr values differ";
  }
  return ::testing::AssertionSuccess();
}

/// Exact cell-wise equality across storage formats (fused CSR regions may
/// legitimately come back dense when structures diverge; the values must
/// still match exactly, no tolerance).
::testing::AssertionResult SameValues(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      if (a.At(r, c) != b.At(r, c)) {
        return ::testing::AssertionFailure()
               << "cell (" << r << "," << c << "): " << a.At(r, c) << " vs "
               << b.At(r, c);
      }
    }
  }
  return ::testing::AssertionSuccess();
}

int CountFusedNodes(const PlanNode& node) {
  int count = node.op == PlanOp::kFusedMap ? 1 : 0;
  for (const auto& child : node.children) count += CountFusedNodes(*child);
  return count;
}

int CountFusedNodes(const std::vector<CompiledStmt>& statements) {
  int count = 0;
  for (const auto& stmt : statements) {
    if (stmt.plan != nullptr) count += CountFusedNodes(*stmt.plan);
    if (stmt.condition != nullptr) count += CountFusedNodes(*stmt.condition);
    count += CountFusedNodes(stmt.body);
  }
  return count;
}

DataCatalog FusionCatalog() {
  DataCatalog catalog;
  DatasetSpec a;
  a.name = "a";
  a.rows = 40;
  a.cols = 30;
  a.sparsity = 0.9;
  a.seed = 11;
  EXPECT_TRUE(RegisterDataset(&catalog, a).ok());
  DatasetSpec b = a;
  b.name = "b";
  b.seed = 12;
  EXPECT_TRUE(RegisterDataset(&catalog, b).ok());
  DatasetSpec s = a;
  s.name = "sp";
  s.sparsity = 0.05;
  s.seed = 13;
  EXPECT_TRUE(RegisterDataset(&catalog, s).ok());
  DatasetSpec s2 = s;
  s2.name = "sp2";
  s2.seed = 14;
  EXPECT_TRUE(RegisterDataset(&catalog, s2).ok());
  return catalog;
}

/// Runs `script` fused and unfused under the same config and checks every
/// requested variable for exact value equality; returns the fused report.
RunReport RunFusedVsUnfused(const std::string& script,
                            const DataCatalog& catalog,
                            const std::vector<std::string>& vars,
                            OptimizerKind optimizer = OptimizerKind::kAsWritten) {
  RunConfig fused_config;
  fused_config.optimizer = optimizer;
  fused_config.max_iterations = 5;
  RunConfig unfused_config = fused_config;
  unfused_config.fuse_elementwise = false;
  auto fused = RunScript(script, catalog, fused_config);
  auto unfused = RunScript(script, catalog, unfused_config);
  EXPECT_TRUE(fused.ok()) << script << fused.status().ToString();
  EXPECT_TRUE(unfused.ok()) << script << unfused.status().ToString();
  if (fused.ok() && unfused.ok()) {
    EXPECT_EQ(CountFusedNodes(unfused->optimized_program->statements), 0);
    for (const std::string& var : vars) {
      EXPECT_TRUE(SameValues(fused->env.at(var).AsMatrix(),
                             unfused->env.at(var).AsMatrix()))
          << "variable " << var << " for script:\n" << script;
    }
  }
  return fused.ok() ? std::move(fused).value() : RunReport{};
}

struct ThreadGuard {
  ~ThreadGuard() { SetKernelThreads(0); }
};

// ---------------------------------------------------------------------------
// Tape interpreter unit tests
// ---------------------------------------------------------------------------

/// The bench/pass chain max((a + b) * a - b, a) as a tape (DFS input
/// occurrences, no dedup).
FusedTape ChainTape(int64_t rows, int64_t cols) {
  FusedTape tape;
  tape.rows = rows;
  tape.cols = cols;
  tape.num_inputs = 5;
  tape.input_scalar.assign(5, 0);
  tape.steps = {{FusedOp::kAdd, 0, 1},
                {FusedOp::kMul, 5, 2},
                {FusedOp::kSub, 6, 3},
                {FusedOp::kMax, 7, 4}};
  return tape;
}

TEST(FusionTape, ToStringIsCanonical) {
  const FusedTape tape = ChainTape(4, 3);
  EXPECT_EQ(tape.ToString(),
            "M,M,M,M,M|t0=add(i0,i1);t1=mul(t0,i2);t2=sub(t1,i3);"
            "t3=max(t2,i4)");
}

TEST(FusionTape, DenseExecutionMatchesUnfusedKernels) {
  const Matrix a = RandomDense(33, 17, 1);
  const Matrix b = RandomDense(33, 17, 2);
  auto exec = ExecuteFusedTape(ChainTape(33, 17), {a, b, a, b, a}, {});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  const Matrix t0 = Add(a, b).value();
  const Matrix t1 = ElementwiseMultiply(t0, a).value();
  const Matrix t2 = Subtract(t1, b).value();
  const Matrix expected = ElementwiseMax(t2, a).value();
  EXPECT_TRUE(BitwiseEqual(exec->output, expected));
  EXPECT_FALSE(exec->csr_path);
  // Shared input handles: nothing to steal.
  EXPECT_FALSE(exec->in_place);
  // Per-step nnz is exact (the final step's count matches the output).
  ASSERT_EQ(exec->step_nnz.size(), 4u);
  EXPECT_EQ(exec->step_nnz[3], exec->output.nnz());
  EXPECT_EQ(exec->step_nnz[0], t0.nnz());
}

TEST(FusionTape, CsrValueArrayFastPath) {
  // One CSR operand used on both sides shares its structure with itself:
  // the tape runs over the stored values only.
  Rng rng(7);
  DenseMatrix d(20, 15);
  for (int64_t i = 0; i < d.size(); ++i) {
    if (rng.NextDouble() < 0.2) d.data()[i] = rng.NextGaussian();
  }
  const Matrix m = Matrix::WrapCsr(CsrMatrix::FromDense(d));
  FusedTape tape;
  tape.rows = 20;
  tape.cols = 15;
  tape.num_inputs = 3;
  tape.input_scalar = {0, 0, 1};
  tape.steps = {{FusedOp::kMul, 0, 1}, {FusedOp::kMul, 3, 2}};
  auto exec = ExecuteFusedTape(tape, {m, m}, {2.0});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_TRUE(exec->csr_path);
  EXPECT_FALSE(exec->output.is_dense());
  const Matrix squared = ElementwiseMultiply(m, m).value();
  for (int64_t r = 0; r < 20; ++r) {
    for (int64_t c = 0; c < 15; ++c) {
      EXPECT_EQ(exec->output.At(r, c), 2.0 * squared.At(r, c));
    }
  }
}

TEST(FusionTape, NonZeroZeroImageFallsBackToDense) {
  Rng rng(8);
  DenseMatrix d(12, 12);
  for (int64_t i = 0; i < d.size(); ++i) {
    if (rng.NextDouble() < 0.2) d.data()[i] = rng.NextGaussian();
  }
  const Matrix m = Matrix::WrapCsr(CsrMatrix::FromDense(d));
  // m * m + 1 densifies: cells outside the structure become 1.
  FusedTape tape;
  tape.rows = 12;
  tape.cols = 12;
  tape.num_inputs = 3;
  tape.input_scalar = {0, 0, 1};
  tape.steps = {{FusedOp::kMul, 0, 1}, {FusedOp::kAdd, 3, 2}};
  auto exec = ExecuteFusedTape(tape, {m, m}, {1.0});
  ASSERT_TRUE(exec.ok()) << exec.status().ToString();
  EXPECT_FALSE(exec->csr_path);
  EXPECT_TRUE(exec->output.is_dense());
  EXPECT_EQ(exec->output.At(0, 0), m.At(0, 0) * m.At(0, 0) + 1.0);
}

TEST(FusionTape, StealsUniquelyOwnedDenseInput) {
  FusedTape tape;
  tape.rows = 9;
  tape.cols = 9;
  tape.num_inputs = 2;
  tape.input_scalar = {0, 0};
  tape.steps = {{FusedOp::kAdd, 0, 1}, {FusedOp::kMul, 2, 0}};
  const Matrix shared = RandomDense(9, 9, 3);
  // Reference run with shared handles (no steal possible).
  auto reference = ExecuteFusedTape(tape, {shared, shared}, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_FALSE(reference->in_place);
  // Same values through a uniquely-owned first operand: stolen, identical.
  std::vector<Matrix> inputs;
  inputs.push_back(RandomDense(9, 9, 3));
  inputs.push_back(shared);
  auto stolen = ExecuteFusedTape(tape, std::move(inputs), {});
  ASSERT_TRUE(stolen.ok());
  EXPECT_TRUE(stolen->in_place);
  EXPECT_TRUE(BitwiseEqual(stolen->output, reference->output));
}

TEST(FusionTape, ThreadCountNeverChangesBits) {
  ThreadGuard guard;
  const Matrix a = RandomDense(47, 61, 4);
  const Matrix b = RandomDense(47, 61, 5);
  const FusedTape tape = ChainTape(47, 61);
  SetKernelThreads(1);
  auto one = ExecuteFusedTape(tape, {a, b, a, b, a}, {});
  ASSERT_TRUE(one.ok());
  for (int threads : {2, 8}) {
    SetKernelThreads(threads);
    auto many = ExecuteFusedTape(tape, {a, b, a, b, a}, {});
    ASSERT_TRUE(many.ok());
    EXPECT_TRUE(BitwiseEqual(many->output, one->output))
        << threads << " threads";
    EXPECT_EQ(many->step_nnz, one->step_nnz) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Plan pass: what fuses and what stays apart
// ---------------------------------------------------------------------------

TEST(FusionPass, FusesChainAndStaysBitwiseIdentical) {
  const DataCatalog catalog = FusionCatalog();
  const RunReport fused = RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = max(A + B, A * B) - A / (B + 3);\n",
      catalog, {"Y"});
  ASSERT_NE(fused.optimized_program, nullptr);
  EXPECT_GE(CountFusedNodes(fused.optimized_program->statements), 1);
}

TEST(FusionPass, MinMaxWithScalarBroadcastAndSparseOperands) {
  const DataCatalog catalog = FusionCatalog();
  RunFusedVsUnfused(
      "S = read(\"sp\");\n"
      "T = read(\"sp2\");\n"
      "Y = min(S, 0.5) + max(S, T) * 2;\n"
      "Z = max(0 - S, S) - min(S * T, S);\n",
      catalog, {"Y", "Z"});
}

TEST(FusionPass, MinMaxSemantics) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\n"
      "L = min(A, 0.25);\n"
      "H = max(A, 0.25);\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Matrix a = run->env.at("A").AsMatrix();
  const Matrix low = run->env.at("L").AsMatrix();
  const Matrix high = run->env.at("H").AsMatrix();
  for (int64_t r = 0; r < a.rows(); ++r) {
    for (int64_t c = 0; c < a.cols(); ++c) {
      EXPECT_EQ(low.At(r, c), FusedApply(FusedOp::kMin, a.At(r, c), 0.25));
      EXPECT_EQ(high.At(r, c), FusedApply(FusedOp::kMax, a.At(r, c), 0.25));
    }
  }
}

TEST(FusionPass, SingleOpDoesNotFuse) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\nB = read(\"b\");\nY = A + B;\n", catalog, config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(CountFusedNodes(run->optimized_program->statements), 0);
}

TEST(FusionPass, ScalarArithmeticDoesNotFuse) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript("x = 2 + 3 * 4 - 1;\n", catalog, config);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(CountFusedNodes(run->optimized_program->statements), 0);
  EXPECT_DOUBLE_EQ(run->env.at("x").AsScalar().value(), 13.0);
}

TEST(FusionPass, MultiplyIsABarrierButItsResultIsAnInput) {
  const DataCatalog catalog = FusionCatalog();
  const RunReport fused = RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = (A %*% t(B)) * 2 + (A %*% t(B));\n",
      catalog, {"Y"});
  ASSERT_NE(fused.optimized_program, nullptr);
  // The elementwise ops fuse; the multiplies survive as region inputs.
  const auto& statements = fused.optimized_program->statements;
  EXPECT_GE(CountFusedNodes(statements), 1);
  bool matmul_under_fused = false;
  for (const auto& stmt : statements) {
    if (stmt.plan == nullptr || stmt.plan->op != PlanOp::kFusedMap) continue;
    for (const auto& child : stmt.plan->children) {
      if (child->op == PlanOp::kMatMul) matmul_under_fused = true;
    }
  }
  EXPECT_TRUE(matmul_under_fused);
}

TEST(FusionPass, RandIsABarrierButItsResultIsAnInput) {
  const DataCatalog catalog = FusionCatalog();
  const RunReport fused = RunFusedVsUnfused(
      "R = rand(40, 30);\n"
      "A = read(\"a\");\n"
      "Y = (R + A) * R - A;\n",
      catalog, {"Y"});
  ASSERT_NE(fused.optimized_program, nullptr);
  EXPECT_GE(CountFusedNodes(fused.optimized_program->statements), 1);
}

TEST(FusionPass, LoopBodiesFuseAndIterate) {
  const DataCatalog catalog = FusionCatalog();
  RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "X = A;\n"
      "i = 0;\n"
      "while (i < 3) {\n"
      "  X = max(X + B, X * 0.5) - B / 7;\n"
      "  i = i + 1;\n"
      "}\n",
      catalog, {"X"});
}

TEST(FusionPass, AdaptiveOptimizerPipelineStaysIdentical) {
  const DataCatalog catalog = FusionCatalog();
  RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "G = t(A) %*% A;\n"
      "Y = (G + t(G)) * 0.5 - G / 3;\n",
      catalog, {"Y"}, OptimizerKind::kRemacAdaptive);
}

TEST(FusionPass, TreeRewriteSharesUntouchedSubtrees) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  auto compiled = CompileScript(
      "A = read(\"a\");\nB = read(\"b\");\nY = A %*% t(B);\n", catalog);
  ASSERT_TRUE(compiled.ok());
  // Nothing fusable: the rewrite must return the identical plan pointers.
  for (const auto& stmt : compiled->statements) {
    if (stmt.plan == nullptr) continue;
    FusionReport report;
    PlanNodePtr rewritten = FuseElementwiseTree(stmt.plan, &report);
    EXPECT_EQ(rewritten.get(), stmt.plan.get());
    EXPECT_EQ(report.regions, 0);
  }
}

// ---------------------------------------------------------------------------
// Randomized chains (chaos seeds): fused == unfused, exactly
// ---------------------------------------------------------------------------

std::string RandomChain(Rng* rng, int depth) {
  if (depth == 0) {
    switch (rng->NextBounded(4)) {
      case 0: return "A";
      case 1: return "B";
      case 2: return "S";
      default: return "0.75";
    }
  }
  const std::string lhs = RandomChain(rng, depth - 1);
  const std::string rhs = RandomChain(rng, depth - 1);
  switch (rng->NextBounded(6)) {
    case 0: return "(" + lhs + " + " + rhs + ")";
    case 1: return "(" + lhs + " - " + rhs + ")";
    case 2: return "(" + lhs + " * " + rhs + ")";
    case 3: return "(" + lhs + " / (" + rhs + " + 2))";
    case 4: return "min(" + lhs + ", " + rhs + ")";
    default: return "max(" + lhs + ", " + rhs + ")";
  }
}

class FusionChaosTest : public ::testing::TestWithParam<int> {};

TEST_P(FusionChaosTest, RandomChainsAreInvariantUnderFusion) {
  const DataCatalog catalog = FusionCatalog();
  Rng rng(static_cast<uint64_t>(GetParam()) * 31 + 5);
  std::string script =
      "A = read(\"a\");\nB = read(\"b\");\nS = read(\"sp\");\n";
  for (int s = 0; s < 3; ++s) {
    script += StringFormat("Y%d = ", s) + RandomChain(&rng, 3) + ";\n";
  }
  RunFusedVsUnfused(script, catalog, {"Y0", "Y1", "Y2"});
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionChaosTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Executor integration: buffer steal + metrics
// ---------------------------------------------------------------------------

TEST(FusionExec, SelfUpdateStealsTheDyingBuffer) {
  const DataCatalog catalog = FusionCatalog();
  Counter* in_place =
      MetricsRegistry::Global().GetCounter("remac.fusion.in_place_hits");
  const int64_t before = in_place->Value();
  // X dies into its own update: the fused region runs inside X's buffer.
  RunFusedVsUnfused(
      "A = read(\"a\");\n"
      "X = A + 0;\n"
      "X = (X + A) * 2 - A;\n",
      catalog, {"X"});
  EXPECT_GT(in_place->Value(), before);
}

TEST(FusionExec, CountersAdvanceOnAFusedRun) {
  const DataCatalog catalog = FusionCatalog();
  auto* registry = &MetricsRegistry::Global();
  Counter* regions = registry->GetCounter("remac.fusion.regions");
  Counter* ops = registry->GetCounter("remac.fusion.ops_fused");
  Counter* bytes = registry->GetCounter("remac.fusion.bytes_avoided");
  const int64_t regions_before = regions->Value();
  const int64_t ops_before = ops->Value();
  const int64_t bytes_before = bytes->Value();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = max(A + B, A) * B - A / 5;\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_GT(regions->Value(), regions_before);
  // A 4-op region: ops_fused advances by >= 4, and every interior step's
  // materialization is counted as avoided bytes.
  EXPECT_GE(ops->Value() - ops_before, 4);
  EXPECT_GT(bytes->Value(), bytes_before);
}

TEST(FusionExec, AuditStillReconcilesFlopsUnderFusion) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "A = read(\"a\");\n"
      "B = read(\"b\");\n"
      "Y = (A + B) * A - B / 2;\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  // The audit walker replays the fused region step by step; with the
  // exact per-step sparsities booked by the executor the FLOP sides
  // cannot drift by more than estimation error on these dense operands.
  EXPECT_GT(run->audit.flops.actual, 0.0);
  EXPECT_GT(run->audit.flops.predicted, 0.0);
}

// ---------------------------------------------------------------------------
// Outer-product leaves: u·vᵀ formed per tile instead of materialized
// ---------------------------------------------------------------------------

/// Dense m x n matrix of Gaussians scaled by `scale`, with ~20% zeros and
/// a -0.0 sprinkled in (so the leaf's u == 0 skip and sign handling run).
Matrix ScaledDense(int64_t rows, int64_t cols, double scale, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) {
    const double pick = rng.NextDouble();
    m.data()[i] = pick < 0.2 ? 0.0
                  : pick < 0.25 ? -0.0
                                : rng.NextGaussian() * scale;
  }
  return Matrix::WrapDense(std::move(m));
}

/// Dense images equal bit for bit (-0.0 vs +0.0 fails).
::testing::AssertionResult SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  const DenseMatrix da = a.ToDense();
  const DenseMatrix db = b.ToDense();
  if (da.size() > 0 &&
      std::memcmp(da.data(), db.data(), da.size() * sizeof(double)) != 0) {
    return ::testing::AssertionFailure() << "payload differs";
  }
  return ::testing::AssertionSuccess();
}

/// (A + u·vᵀ) * 2 with slot 1 an outer-product leaf.
FusedTape OuterTape(int64_t rows, int64_t cols) {
  FusedTape tape;
  tape.rows = rows;
  tape.cols = cols;
  tape.num_inputs = 3;
  tape.input_scalar = {0, 0, 1};
  tape.steps = {{FusedOp::kAdd, 0, 1}, {FusedOp::kMul, 3, 2}};
  return tape;
}

TEST(FusionTape, OuterLeafMatchesTheMaterializedProduct) {
  ThreadGuard guard;
  // 37 x 53 spans tile boundaries mid-row; the tiny scale underflows
  // part of the product to zero.
  for (const double scale : {1.0, 1e-162}) {
    const Matrix a = RandomDense(37, 53, 81);
    const Matrix u = ScaledDense(37, 1, scale, 82);
    const Matrix v = ScaledDense(1, 53, scale, 83);
    const Matrix product = Multiply(u, v).value();
    for (int threads : {1, 2, 8}) {
      SetKernelThreads(threads);
      auto formed = ExecuteFusedTape(OuterTape(37, 53), {a, product}, {2.0});
      auto leaf = ExecuteFusedTape(OuterTape(37, 53), {a}, {2.0},
                                   {FusedLeaf{1, u, v}});
      ASSERT_TRUE(formed.ok()) << formed.status().ToString();
      ASSERT_TRUE(leaf.ok()) << leaf.status().ToString();
      EXPECT_TRUE(BitwiseEqual(leaf->output, formed->output)) << threads;
      EXPECT_EQ(leaf->step_nnz, formed->step_nnz) << threads;
      EXPECT_EQ(OuterProductNnz(u, v), product.nnz()) << scale;
    }
  }
  // The tiny scale really does underflow some non-zero pairs.
  const Matrix u = ScaledDense(37, 1, 1e-162, 82);
  const Matrix v = ScaledDense(1, 53, 1e-162, 83);
  EXPECT_LT(Multiply(u, v).value().nnz(), u.nnz() * v.nnz());
}

TEST(FusionTape, LeafInAScalarSlotIsRejected) {
  const Matrix a = RandomDense(4, 5, 84);
  const Matrix b = RandomDense(4, 5, 87);
  EXPECT_FALSE(ExecuteFusedTape(OuterTape(4, 5), {a, b}, {},
                                {FusedLeaf{2, RandomDense(4, 1, 85),
                                           RandomDense(5, 1, 86)}})
                   .ok());
}

/// Everything an execution booked, plus its results.
struct Outcome {
  std::map<std::string, RtValue> env;
  double flops = 0.0;
  std::array<double, kNumTransmissionPrimitives> bytes{};
  int64_t ops = 0;
  int64_t multiplies = 0;  // local multiply kernel calls
  /// Outer products the fused run kept unformed (set by
  /// ExpectFusedEqualsUnfused: the unfused run's extra multiplies).
  int64_t unformed_products = 0;
  CostAuditRecord audit;
};

Outcome Execute(const std::string& script, const DataCatalog& catalog,
                const RunConfig& config) {
  Outcome out;
  auto program = CompileScript(script, catalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return out;
  auto optimized = OptimizeCompiled(*program, catalog, config, nullptr);
  EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();
  if (!optimized.ok()) return out;
  TransmissionLedger ledger(config.cluster);
  RunReport report;
  Counter* ops = MetricsRegistry::Global().GetCounter("remac.executor.ops");
  Counter* multiplies =
      MetricsRegistry::Global().GetCounter("remac.kernel.multiplies");
  const int64_t ops_before = ops->Value();
  const int64_t multiplies_before = multiplies->Value();
  const Status status =
      ExecuteCompiled(*optimized, catalog, config, &ledger, &report);
  EXPECT_TRUE(status.ok()) << status.ToString();
  out.ops = ops->Value() - ops_before;
  out.multiplies = multiplies->Value() - multiplies_before;
  out.env = std::move(report.env);
  out.audit = report.audit;
  out.flops = ledger.TotalFlops();
  for (size_t i = 0; i < out.bytes.size(); ++i) {
    out.bytes[i] = ledger.BytesFor(static_cast<TransmissionPrimitive>(i));
  }
  return out;
}

/// Runs `script` fused and with fusion off; results must match bit for
/// bit and every ledger total and the op count exactly (the task-graph
/// scheduler folds per-task ledgers in completion order, so there the
/// totals may differ by rounding: `ledger_rel_tol`).
Outcome ExpectFusedEqualsUnfused(const std::string& script,
                                 const DataCatalog& catalog, RunConfig config,
                                 double ledger_rel_tol = 0.0) {
  config.fuse_elementwise = true;
  Outcome fused = Execute(script, catalog, config);
  config.fuse_elementwise = false;
  const Outcome unfused = Execute(script, catalog, config);
  fused.unformed_products = unfused.multiplies - fused.multiplies;
  EXPECT_GE(fused.unformed_products, 0);
  EXPECT_EQ(fused.env.size(), unfused.env.size());
  for (const auto& [name, value] : unfused.env) {
    auto it = fused.env.find(name);
    if (it == fused.env.end()) {
      ADD_FAILURE() << "missing " << name;
      continue;
    }
    if (value.is_scalar) {
      EXPECT_TRUE(it->second.is_scalar) << name;
      EXPECT_EQ(std::memcmp(&value.scalar, &it->second.scalar,
                            sizeof(double)),
                0)
          << name << ": " << value.scalar << " vs " << it->second.scalar;
    } else {
      EXPECT_TRUE(SameBits(it->second.matrix, value.matrix)) << name;
      EXPECT_EQ(it->second.distributed, value.distributed) << name;
    }
  }
  auto expect_total = [&](double a, double b, const std::string& what) {
    if (ledger_rel_tol == 0.0) {
      EXPECT_EQ(a, b) << what;
    } else {
      EXPECT_NEAR(a, b, ledger_rel_tol * std::max(1.0, std::fabs(b))) << what;
    }
  };
  expect_total(fused.flops, unfused.flops, "flops");
  for (size_t i = 0; i < fused.bytes.size(); ++i) {
    expect_total(fused.bytes[i], unfused.bytes[i],
                 StringFormat("bytes of primitive %d", static_cast<int>(i)));
  }
  EXPECT_EQ(fused.ops, unfused.ops);
  return fused;
}

DataCatalog AlgorithmCatalog() {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = 60;
  spec.cols = 12;
  spec.sparsity = 0.5;
  spec.seed = 17;
  EXPECT_TRUE(RegisterDataset(&catalog, spec).ok());
  return catalog;
}

class FusionLeavesAlgorithmTest
    : public ::testing::TestWithParam<
          std::tuple<int, SchedulerKind, EngineKind>> {};

/// All six algorithm scripts, fused (outer products as leaves) vs
/// --no-fuse, under both schedulers and every engine personality.
TEST_P(FusionLeavesAlgorithmTest, MatchesUnfusedWithEqualLedger) {
  const auto [index, scheduler, engine] = GetParam();
  const std::function<std::string()> scripts[] = {
      [] { return GdScript("ds", 3); },
      [] { return DfpScript("ds", 3); },
      [] { return BfgsScript("ds", 3); },
      [] { return GnmfScript("ds", 3, 3); },
      [] { return LogisticRegressionScript("ds", 3); },
      [] { return RidgeRegressionScript("ds", 3); },
  };
  const DataCatalog catalog = AlgorithmCatalog();
  RunConfig config;
  config.max_iterations = 3;
  config.scheduler = scheduler;
  config.pool_threads = 2;
  config.engine = engine;
  const Outcome fused = ExpectFusedEqualsUnfused(
      scripts[index](), catalog, config,
      scheduler == SchedulerKind::kTaskGraph ? 1e-12 : 0.0);
  if (engine != EngineKind::kSystemDsLike) {
    // These personalities place every operand distributed, so each outer
    // product is a CPMM, i.e. a 2D candidate, and is formed.
    EXPECT_EQ(fused.unformed_products, 0);
  } else if (index == 1 || index == 2) {
    // DFP and BFGS update H with rank-1 terms: leaves must be in play.
    EXPECT_GT(fused.unformed_products, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FusionScripts, FusionLeavesAlgorithmTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(SchedulerKind::kSerial,
                                         SchedulerKind::kTaskGraph),
                       ::testing::Values(EngineKind::kSystemDsLike,
                                         EngineKind::kPbdR,
                                         EngineKind::kSciDb)));

/// Catalog of vectors whose products underflow: u·vᵀ has fewer non-zeros
/// than nnz(u)·nnz(v), so only an exact count books the right bytes.
DataCatalog TinyVectorCatalog() {
  DataCatalog catalog;
  catalog.Register("a", RandomDense(24, 18, 91));
  catalog.Register("u", ScaledDense(24, 1, 1e-162, 92));
  catalog.Register("v", ScaledDense(18, 1, 1e-162, 93));
  DenseMatrix ones(18, 1);
  for (int64_t i = 0; i < ones.size(); ++i) ones.data()[i] = 1.0;
  catalog.Register("ones", Matrix::WrapDense(std::move(ones)));
  return catalog;
}

TEST(FusionLeaves, UnderflowingLeafBooksItsExactSparsity) {
  const DataCatalog catalog = TinyVectorCatalog();
  // u stays a distributed dataset while v becomes a local vector (an
  // elementwise result small enough to collect), so the multiply is a
  // BMM whose collection bytes price the exact product nnz.
  const std::string script =
      "A = read(\"a\");\n"
      "U = read(\"u\");\n"
      "V = read(\"v\") * read(\"ones\");\n"
      "Y = (A + U %*% t(V)) * 3;\n";
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  const Outcome fused = ExpectFusedEqualsUnfused(script, catalog, config);
  EXPECT_EQ(fused.unformed_products, 1);
  const Matrix product =
      Multiply(catalog.Value("u").value(),
               Transpose(catalog.Value("v").value()))
          .value();
  EXPECT_LT(product.nnz(), catalog.Value("u").value().nnz() *
                               catalog.Value("v").value().nnz());
  EXPECT_GT(fused.bytes[static_cast<size_t>(
                TransmissionPrimitive::kCollection)],
            0.0);
}

TEST(FusionLeaves, TwoDimensionalCandidateFormsTheProduct) {
  const DataCatalog catalog = TinyVectorCatalog();
  // Both vectors are distributed datasets: the 1D chooser picks CPMM, a
  // SUMMA candidate priced from the product's tile grid, so the leaf
  // falls back to forming the product.
  const std::string script =
      "A = read(\"a\");\n"
      "Y = (A + read(\"u\") %*% t(read(\"v\"))) * 3;\n";
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  config.cluster.dist2d = Dist2DMode::kForce2D;
  Counter* candidates =
      MetricsRegistry::Global().GetCounter("remac.dist2d.candidates");
  const int64_t before = candidates->Value();
  const Outcome fused = ExpectFusedEqualsUnfused(script, catalog, config);
  EXPECT_EQ(fused.unformed_products, 0);
  // One candidate per run: the fused run's fallback went through the
  // exact-tile pricing just as the unfused multiply did.
  EXPECT_EQ(candidates->Value() - before, 2);
}

/// `m` with about `zero_fraction` of its cells set to +0.0, kept in the
/// storage format it has.
Matrix WithZeros(const Matrix& m, double zero_fraction, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix d = m.ToDense();
  for (int64_t i = 0; i < d.size(); ++i) {
    if (rng.NextDouble() < zero_fraction) d.data()[i] = 0.0;
  }
  return m.is_dense() ? Matrix::WrapDense(std::move(d))
                      : Matrix::FromDense(std::move(d));
}

TEST(FusionLeaves, SparseLeavesBesideCsrInputsMatchUnfused) {
  // Every other region input is CSR and every product is at most 40%
  // dense, so the unfused operators all run on CSR matrices while the
  // fused region evaluates the unformed leaves on its dense path. V and W
  // share one zero pattern, so the two products of Z share a structure.
  DataCatalog catalog;
  catalog.Register("a", Matrix::FromDense(
                            WithZeros(RandomDense(24, 18, 94), 0.8, 95)
                                .ToDense()));
  catalog.Register("u", WithZeros(ScaledDense(24, 1, 1.0, 96), 0.3, 97));
  const Matrix v = ScaledDense(18, 1, 1.0, 98);
  DenseMatrix w = RandomDense(18, 1, 99).ToDense();
  for (int64_t i = 0; i < w.size(); ++i) {
    if (v.dense().data()[i] == 0.0) w.data()[i] = 0.0;
  }
  catalog.Register("v", v);
  catalog.Register("w", Matrix::WrapDense(std::move(w)));
  DenseMatrix ones(18, 1);
  for (int64_t i = 0; i < ones.size(); ++i) ones.data()[i] = 1.0;
  catalog.Register("ones", Matrix::WrapDense(std::move(ones)));
  ASSERT_FALSE(catalog.Value("a").value().is_dense());
  // Formed, the product would be CSR too.
  EXPECT_FALSE(Multiply(catalog.Value("u").value(),
                        Transpose(catalog.Value("v").value()))
                   .value()
                   .is_dense());
  const std::string script =
      "A = read(\"a\");\n"
      "U = read(\"u\");\n"
      "V = read(\"v\") * read(\"ones\");\n"
      "W = read(\"w\") * read(\"ones\");\n"
      "Y = (A + U %*% t(V)) * 3;\n"
      "Z = (U %*% t(V)) * (U %*% t(W)) * 2;\n";
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  const Outcome fused = ExpectFusedEqualsUnfused(script, catalog, config);
  EXPECT_EQ(fused.unformed_products, 3);
  ASSERT_TRUE(fused.env.count("Y") && fused.env.count("Z"));
  EXPECT_FALSE(fused.env.at("Y").matrix.is_dense());
  EXPECT_FALSE(fused.env.at("Z").matrix.is_dense());
}

/// The cost audit replays an outer-product slot as the multiply the
/// executor books for it, so on the paper's rank-1-update programs the
/// predicted-vs-actual reconciliation is the same fused as unfused.
TEST(ObsAudit, OuterLeavesKeepTheCri2AuditReconciled) {
  DataCatalog catalog;
  ASSERT_TRUE(RegisterDataset(&catalog, PaperDatasetSpec("cri2").value()).ok());
  RunConfig config;
  config.max_iterations = 2;
  for (const std::string& script :
       {DfpScript("cri2", 2), BfgsScript("cri2", 2)}) {
    const Outcome fused = ExpectFusedEqualsUnfused(script, catalog, config);
    config.fuse_elementwise = false;
    const Outcome unfused = Execute(script, catalog, config);
    config.fuse_elementwise = true;
    EXPECT_GT(fused.unformed_products, 0);
    ASSERT_TRUE(fused.audit.valid) << fused.audit.error;
    ASSERT_TRUE(unfused.audit.valid) << unfused.audit.error;
    // The walker books a fused region's steps after all of its inputs,
    // the unfused tree interleaves them, so predicted sums may differ in
    // rounding; the actual sides are the ledgers, which match exactly.
    auto near = [](double a, double b) {
      return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
    };
    EXPECT_TRUE(near(fused.audit.flops.predicted,
                     unfused.audit.flops.predicted));
    EXPECT_EQ(fused.audit.flops.actual, unfused.audit.flops.actual);
    for (size_t i = 0; i < fused.audit.transmission.size(); ++i) {
      EXPECT_TRUE(near(fused.audit.transmission[i].predicted,
                       unfused.audit.transmission[i].predicted))
          << i;
      EXPECT_EQ(fused.audit.transmission[i].actual,
                unfused.audit.transmission[i].actual)
          << i;
    }
  }
}

// ---------------------------------------------------------------------------
// MatCache: fused pure-read chains are candidates
// ---------------------------------------------------------------------------

TEST(FusionMatCache, PureReadFusedChainBecomesACandidate) {
  const DataCatalog catalog = FusionCatalog();
  RunConfig config;
  config.optimizer = OptimizerKind::kAsWritten;
  auto run = RunScript(
      "Y = (read(\"a\") + read(\"b\")) * read(\"a\") - read(\"b\");\n",
      catalog, config);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const auto candidates = ExtractIntermediateCandidates(
      *run->optimized_program, catalog, config);
  bool found = false;
  for (const auto& candidate : candidates) {
    if (candidate.node->op != PlanOp::kFusedMap) continue;
    found = true;
    // The canonical key embeds the tape, and both datasets invalidate it.
    EXPECT_NE(candidate.window_key.find("t0="), std::string::npos);
    EXPECT_EQ(candidate.datasets,
              (std::vector<std::string>{"a", "b"}));
    EXPECT_GT(candidate.predicted_flops, 0.0);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace remac
