// One pass over a set of programs, compiled and executed through the
// library's public layer functions. Untraced passes use the one-call
// entry points (CompileScript, OptimizeCompiled, ExecuteCompiled); traced
// passes call the layers one by one (ParseProgram, BuildPlans,
// ReMacOptimizer::Optimize, AnnotateMultiplyLayouts,
// FuseElementwiseChains, ExecuteCompiled, PredictProgramCost) inside
// benchmark-owned spans. Both book into the benchmark's own ledger.
#ifndef PERFBENCH_PROGRAM_SET_H_
#define PERFBENCH_PROGRAM_SET_H_

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "runtime/program_runner.h"

namespace perfbench {

struct ProgramSpec {
  std::string label;  // e.g. "dfp/cri2"
  std::string source;
};

/// Ledger totals of one execution (the simulated-cluster clock).
struct LedgerTotals {
  double sim_s = 0.0;  // computation + transmission + input partition
  double flops = 0.0;
  double collection_bytes = 0.0;
  double broadcast_bytes = 0.0;
  double shuffle_bytes = 0.0;
  LedgerTotals& operator+=(const LedgerTotals& o);
};

/// Registry counters and histogram sums a pass moves; deltas of two
/// snapshots attribute work to one pass.
struct RegistrySnapshot {
  std::map<std::string, double> values;
  static RegistrySnapshot Take();
  /// after - before for every instrument.
  static std::map<std::string, double> Delta(const RegistrySnapshot& before,
                                             const RegistrySnapshot& after);
};

/// Per-pass layer quantities a traced pass measures beyond its spans.
struct LayerExtras {
  double estimate_optimize_s = 0.0;  // estimator time inside Optimize
  double estimate_layout_s = 0.0;    // ... inside AnnotateMultiplyLayouts
  double estimate_audit_s = 0.0;     // ... inside PredictProgramCost
  int64_t estimate_calls = 0;        // optimize + layout calls
  int64_t fusion_regions = 0;
};

struct ProgramRun {
  double compile_s = 0.0;  // parse + optimize (incl. layout and fusion)
  double execute_s = 0.0;  // ExecuteCompiled, audit included
  LedgerTotals ledger;
  std::map<std::string, remac::RtValue> env;
  remac::CompiledProgram optimized;
};

struct PassResult {
  bool ok = true;
  std::string error;  // first failure
  double wall_s = 0.0;
  double compile_s = 0.0;
  double execute_s = 0.0;
  LedgerTotals ledger;
  std::vector<ProgramRun> runs;  // parallel to the program set
  LayerExtras extras;            // traced passes only
  std::map<std::string, double> registry_delta;
};

/// Runs every program once. With `recorder` set the pass is traced:
/// spans go to the recorder under a "pass" root. `keep_env` retains each
/// program's final variables in the result.
PassResult RunPass(const std::vector<ProgramSpec>& programs,
                   const remac::DataCatalog& catalog,
                   const remac::RunConfig& config, SpanRecorder* recorder,
                   bool keep_env);

/// The as-written program on the serial executor with fusion off: the
/// reference every optimized result is checked against.
remac::Result<std::map<std::string, remac::RtValue>> ReferenceEnv(
    const ProgramSpec& program, const remac::DataCatalog& catalog,
    const remac::RunConfig& config);

/// Executes `optimized` and the as-written `program` under `config`
/// (whose executed_iterations bounds both loops) and compares every
/// final variable of the reference within kResultTolerance.
EnvCheck CheckAgainstReference(const remac::CompiledProgram& optimized,
                               const ProgramSpec& program,
                               const remac::DataCatalog& catalog,
                               const remac::RunConfig& config);

/// Per-layer metrics of one traced pass: span totals and self times,
/// estimator decorator figures and registry deltas, under the names the
/// benchmark reports (lang.*, plan.*, core.*, sparsity.*, cost.*,
/// obs.*, runtime.*, matrix.*, cluster.*, distributed.*, sched.*).
std::map<std::string, Metric> LayerMetrics(const PassResult& pass,
                                           const SpanRecorder& recorder,
                                           int64_t first_span);

/// Whether a per-layer metric must repeat exactly for a seed: every
/// count, byte, flop and ratio of the program-set layers. Times vary run
/// to run; scheduler and service figures depend on thread interleaving.
bool IsRepeatable(const std::string& name, const Metric& metric);

}  // namespace perfbench

#endif  // PERFBENCH_PROGRAM_SET_H_
