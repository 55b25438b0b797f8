#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algorithms/scripts.h"
#include "core/adaptive_optimizer.h"
#include "data/generators.h"
#include "plan/chain.h"
#include "plan/plan_builder.h"
#include "runtime/executor.h"
#include "sparsity/estimator.h"

namespace remac {
namespace {

DataCatalog OptCatalog(int64_t rows = 300, int64_t cols = 10) {
  DataCatalog catalog;
  DatasetSpec spec;
  spec.name = "ds";
  spec.rows = rows;
  spec.cols = cols;
  spec.sparsity = 0.5;
  spec.seed = 6;
  EXPECT_TRUE(RegisterDataset(&catalog, spec, true).ok());
  return catalog;
}

Result<CompiledProgram> OptimizeScript(const std::string& script,
                                       const DataCatalog& catalog,
                                       OptimizerConfig config,
                                       OptimizeReport* report = nullptr) {
  auto program = CompileScript(script, catalog);
  if (!program.ok()) return program.status();
  static MetadataEstimator estimator;
  ReMacOptimizer optimizer(ClusterModel(), &estimator, &catalog, config);
  return optimizer.Optimize(*program, report);
}

Matrix RunProgram(const CompiledProgram& program, const DataCatalog& catalog,
                  const std::string& var, int iterations) {
  Executor executor(ClusterModel(), &catalog, nullptr);
  EXPECT_TRUE(executor.Run(program.statements, iterations).ok());
  auto value = executor.Get(var);
  EXPECT_TRUE(value.ok());
  return value->AsMatrix();
}

TEST(Optimizer, EmitsHoistedLseBeforeLoop) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.strategy = EliminationStrategy::kAutomatic;
  OptimizeReport report;
  auto optimized = OptimizeScript(GdScript("ds", 5), catalog, config, &report);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_GT(report.applied_lse, 0);
  // Hoisted temp assignments appear before the loop statement.
  bool saw_temp = false;
  for (const auto& stmt : optimized->statements) {
    if (stmt.kind == CompiledStmt::Kind::kLoop) break;
    saw_temp = saw_temp || stmt.is_temp;
  }
  EXPECT_TRUE(saw_temp);
}

TEST(Optimizer, OptimizedGdMatchesUnoptimized) {
  const DataCatalog catalog = OptCatalog();
  auto reference = CompileScript(GdScript("ds", 4), catalog);
  ASSERT_TRUE(reference.ok());
  const Matrix expected = RunProgram(*reference, catalog, "x", 4);
  for (EliminationStrategy strategy :
       {EliminationStrategy::kNone, EliminationStrategy::kAutomatic,
        EliminationStrategy::kConservative, EliminationStrategy::kAggressive,
        EliminationStrategy::kAdaptive}) {
    OptimizerConfig config;
    config.strategy = strategy;
    auto optimized = OptimizeScript(GdScript("ds", 4), catalog, config);
    ASSERT_TRUE(optimized.ok()) << EliminationStrategyName(strategy);
    const Matrix got = RunProgram(*optimized, catalog, "x", 4);
    EXPECT_TRUE(got.ApproxEquals(expected, 1e-8))
        << EliminationStrategyName(strategy);
  }
}

TEST(Optimizer, OptimizedDfpMatchesUnoptimized) {
  const DataCatalog catalog = OptCatalog();
  auto reference = CompileScript(DfpScript("ds", 3), catalog);
  ASSERT_TRUE(reference.ok());
  const Matrix expected_x = RunProgram(*reference, catalog, "x", 3);
  const Matrix expected_h = RunProgram(*reference, catalog, "H", 3);
  for (EliminationStrategy strategy :
       {EliminationStrategy::kAutomatic, EliminationStrategy::kAdaptive}) {
    OptimizerConfig config;
    config.strategy = strategy;
    auto optimized = OptimizeScript(DfpScript("ds", 3), catalog, config);
    ASSERT_TRUE(optimized.ok());
    EXPECT_TRUE(RunProgram(*optimized, catalog, "x", 3)
                    .ApproxEquals(expected_x, 1e-7))
        << EliminationStrategyName(strategy);
    EXPECT_TRUE(RunProgram(*optimized, catalog, "H", 3)
                    .ApproxEquals(expected_h, 1e-7))
        << EliminationStrategyName(strategy);
  }
}

TEST(Optimizer, OptimizedBfgsAndGnmfMatch) {
  const DataCatalog catalog = OptCatalog();
  for (const std::string& script :
       {BfgsScript("ds", 3), GnmfScript("ds", 4, 3)}) {
    auto reference = CompileScript(script, catalog);
    ASSERT_TRUE(reference.ok());
    const std::string var = script.find("V =") != std::string::npos ? "W" : "x";
    const Matrix expected = RunProgram(*reference, catalog, var, 3);
    OptimizerConfig config;
    config.strategy = EliminationStrategy::kAdaptive;
    auto optimized = OptimizeScript(script, catalog, config);
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    EXPECT_TRUE(
        RunProgram(*optimized, catalog, var, 3).ApproxEquals(expected, 1e-7));
  }
}

TEST(Optimizer, LoopFreeProgramGetsCse) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.strategy = EliminationStrategy::kAdaptive;
  OptimizeReport report;
  auto optimized =
      OptimizeScript(PartialDfpScript("ds"), catalog, config, &report);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  EXPECT_GT(report.options_found, 0);
  // Result value is preserved.
  auto reference = CompileScript(PartialDfpScript("ds"), catalog);
  ASSERT_TRUE(reference.ok());
  const Matrix expected = RunProgram(*reference, catalog, "val", 1);
  EXPECT_TRUE(
      RunProgram(*optimized, catalog, "val", 1).ApproxEquals(expected, 1e-8));
}

TEST(Optimizer, ForcedKeysApplyExactly) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.forced_option_keys = {JoinKey({"A'", "A"})};
  OptimizeReport report;
  auto optimized =
      OptimizeScript(GdScript("ds", 5), catalog, config, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(report.applied_cse + report.applied_lse, 1);
  ASSERT_EQ(report.applied_options.size(), 1u);
  EXPECT_NE(report.applied_options[0].find("A"), std::string::npos);
}

TEST(Optimizer, ReportCountsConsistent) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.strategy = EliminationStrategy::kAdaptive;
  OptimizeReport report;
  auto optimized =
      OptimizeScript(DfpScript("ds", 5), catalog, config, &report);
  ASSERT_TRUE(optimized.ok());
  EXPECT_EQ(static_cast<int>(report.applied_options.size()),
            report.applied_cse + report.applied_lse);
  EXPECT_GE(report.options_found,
            report.applied_cse + report.applied_lse);
  EXPECT_GT(report.total_compile_seconds, 0.0);
  EXPECT_GT(report.search.windows_visited, 0);
}

TEST(Optimizer, TreeWiseSearchPathWorks) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.search = SearchMethod::kTreeWise;
  config.treewise_budget = 100000000;
  auto reference = CompileScript(GdScript("ds", 3), catalog);
  ASSERT_TRUE(reference.ok());
  const Matrix expected = RunProgram(*reference, catalog, "x", 3);
  auto optimized = OptimizeScript(GdScript("ds", 3), catalog, config);
  ASSERT_TRUE(optimized.ok());
  EXPECT_TRUE(
      RunProgram(*optimized, catalog, "x", 3).ApproxEquals(expected, 1e-8));
}

TEST(Optimizer, EnumCombinerPathWorks) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.combiner = CombinerKind::kEnumBreadthFirst;
  config.enum_budget = 500;
  auto reference = CompileScript(DfpScript("ds", 3), catalog);
  ASSERT_TRUE(reference.ok());
  const Matrix expected = RunProgram(*reference, catalog, "x", 3);
  auto optimized = OptimizeScript(DfpScript("ds", 3), catalog, config);
  ASSERT_TRUE(optimized.ok());
  EXPECT_TRUE(
      RunProgram(*optimized, catalog, "x", 3).ApproxEquals(expected, 1e-7));
}

TEST(Optimizer, TempsScheduledBeforeUse) {
  const DataCatalog catalog = OptCatalog();
  OptimizerConfig config;
  config.strategy = EliminationStrategy::kAutomatic;
  auto optimized = OptimizeScript(DfpScript("ds", 3), catalog, config);
  ASSERT_TRUE(optimized.ok());
  // Executing validates the schedule: any temp used before assignment
  // would fail with NotFound.
  Executor executor(ClusterModel(), &catalog, nullptr);
  EXPECT_TRUE(executor.Run(optimized->statements, 3).ok());
}


/// Applied option keys of the adaptive optimizer (MNC estimator, default
/// config) on a Table-2 dataset at its default seed, sorted.
std::vector<std::string> MncOptionKeys(const std::string& script,
                                       const std::string& dataset) {
  DataCatalog catalog;
  EXPECT_TRUE(
      RegisterDataset(&catalog, PaperDatasetSpec(dataset).value(), true).ok());
  auto program = CompileScript(script, catalog);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  MncEstimator estimator;
  ReMacOptimizer optimizer(ClusterModel(), &estimator, &catalog,
                           OptimizerConfig());
  OptimizeReport report;
  EXPECT_TRUE(optimizer.Optimize(*program, &report).ok());
  std::vector<std::string> keys = report.applied_options;
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Sorted option keys, written with '|' where JoinKey separates symbols.
std::vector<std::string> Keys(std::vector<std::string> keys) {
  for (std::string& key : keys) {
    std::replace(key.begin(), key.end(), '|', kKeySeparator);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// The options MNC chooses for DFP and BFGS on cri2 and red2, pinned: a
// change that only speeds up sketch propagation must leave them alone.
TEST(Optimizer, MncChosenOptionsPinnedForDfpAndBfgs) {
  const std::vector<std::string> dfp = Keys({
      "CSE#11{H@0|g@1 @ b2[0,2),b4[3,5),b4[5,7)^T,b5[0,2)^T,b5[7,9),b6[0,2),"
      "b6[2,4)^T,b7[0,2)^T,b7[4,6)}",
      "CSE#7{A'|A|H@0|g@1 @ b4[1,5),b4[5,9)^T,b5[0,4)^T,b5[5,9),b7[0,4)^T}",
      "LSE#5{A'|A @ b0[0,2),b4[1,3),b4[7,9),b5[2,4),b5[5,7),b7[2,4)}",
      "LSE#8{A'|b @ b1[0,2)}",
  });
  const std::vector<std::string> bfgs = Keys({
      "CSE#10{A'|A|H@0|g@1 @ b3[0,4)^T,b5[2,6)^T,b6[0,4)^T,b7[1,5),b8[0,4)^T,"
      "b9[0,4)^T,b9[5,9),b11[0,4)^T,b12[0,4)^T,b14[0,4)^T}",
      "CSE#17{H@0|A'|A|H@0|g@1 @ b7[0,5),b9[4,9)}",
      "CSE#18{H@0|g@1 @ b2[0,2),b3[0,2)^T,b3[4,6),b5[0,2),b5[2,4)^T,"
      "b6[0,2)^T,b6[4,6),b7[3,5),b7[5,7)^T,b8[0,2)^T,b8[4,6),b9[0,2)^T,"
      "b9[7,9),b10[0,2),b10[2,4)^T,b11[0,2)^T,b11[4,6),b12[0,2)^T,"
      "b12[4,6),b13[0,2),b13[2,4)^T,b14[0,2)^T,b14[4,6)}",
      "CSE#25{g@1'|H@0'|A'|A|H@0|g@1 @ b3[0,6),b6[0,6),b8[0,6),b11[0,6),"
      "b12[0,6),b14[0,6)}",
      "LSE#14{A'|b @ b1[0,2)}",
      "LSE#8{A'|A @ b0[0,2),b3[2,4),b5[4,6),b6[2,4),b7[1,3),b8[2,4),"
      "b9[2,4),b9[5,7),b11[2,4),b12[2,4),b14[2,4)}",
  });
  for (const char* ds : {"cri2", "red2"}) {
    SCOPED_TRACE(ds);
    EXPECT_EQ(MncOptionKeys(DfpScript(ds, 20), ds), dfp);
    EXPECT_EQ(MncOptionKeys(BfgsScript(ds, 20), ds), bfgs);
  }
}

}  // namespace
}  // namespace remac
