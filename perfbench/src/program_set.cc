#include "program_set.h"

#include <algorithm>
#include <memory>

#include "baselines/engine_modes.h"
#include "core/adaptive_optimizer.h"
#include "cost/cost_model.h"
#include "lang/parser.h"
#include "obs/cost_audit.h"
#include "plan/fusion.h"

namespace perfbench {

using remac::CompiledProgram;
using remac::DataCatalog;
using remac::RunConfig;
using remac::RunReport;
using remac::Status;

LedgerTotals& LedgerTotals::operator+=(const LedgerTotals& o) {
  sim_s += o.sim_s;
  flops += o.flops;
  collection_bytes += o.collection_bytes;
  broadcast_bytes += o.broadcast_bytes;
  shuffle_bytes += o.shuffle_bytes;
  return *this;
}

namespace {

const char* const kCounters[] = {
    "remac.search.windows_visited", "remac.search.options_found",
    "remac.costgraph.interval_nodes", "remac.probe.evaluations",
    "remac.probe.withdrawn", "remac.probe.chosen_options",
    "remac.fusion.bytes_avoided", "remac.kernel.multiplies",
    "remac.kernel.gemm_blocked", "remac.kernel.fused_transpose",
    "remac.kernel.parallel_tasks", "remac.dist2d.selected",
    "remac.pool.tasks_executed", "remac.pool.steals",
    "remac.plancache.evictions", "remac.matcache.hits",
    "remac.matcache.probes", "remac.service.shed", "remac.service.degraded",
};

const char* const kHistograms[] = {
    "remac.executor.execute_seconds", "remac.executor.multiply_seconds",
    "remac.executor.elementwise_seconds", "remac.executor.transpose_seconds",
    "remac.contention.pool_queue_seconds",
    "remac.service.flight_wait_seconds",
};

LedgerTotals TotalsOf(const remac::TransmissionLedger& ledger) {
  const remac::TimeBreakdown b = ledger.Breakdown();
  LedgerTotals t;
  t.sim_s = b.computation_seconds + b.transmission_seconds +
            b.input_partition_seconds + b.recovery_seconds;
  t.flops = ledger.TotalFlops();
  t.collection_bytes =
      ledger.BytesFor(remac::TransmissionPrimitive::kCollection);
  t.broadcast_bytes = ledger.BytesFor(remac::TransmissionPrimitive::kBroadcast);
  t.shuffle_bytes = ledger.BytesFor(remac::TransmissionPrimitive::kShuffle);
  return t;
}

/// Compile stage through the one-call entry points.
remac::Result<CompiledProgram> CompileUntraced(const ProgramSpec& program,
                                               const DataCatalog& catalog,
                                               const RunConfig& config) {
  REMAC_ASSIGN_OR_RETURN(const CompiledProgram compiled,
                         remac::CompileScript(program.source, catalog));
  return remac::OptimizeCompiled(compiled, catalog, config, nullptr);
}

/// Compile stage layer by layer, each call inside its own span. Mirrors
/// OptimizeCompiled for the ReMac optimizer kinds, with the estimator
/// wrapped in the timing decorator.
remac::Result<CompiledProgram> CompileTraced(const ProgramSpec& program,
                                             const DataCatalog& catalog,
                                             const RunConfig& config,
                                             SpanRecorder* rec, int64_t parent,
                                             LayerExtras* extras) {
  const std::string& item = program.label;
  remac::Program ast;
  {
    ScopedSpan span(rec, "lang.parse", parent, item);
    REMAC_ASSIGN_OR_RETURN(ast, remac::ParseProgram(program.source));
  }
  CompiledProgram built;
  {
    ScopedSpan span(rec, "plan.build", parent, item);
    REMAC_ASSIGN_OR_RETURN(built, remac::BuildPlans(ast, catalog));
  }
  TimedEstimator estimator(remac::MakeEstimator(config.estimator, &catalog));
  CompiledProgram optimized;
  {
    ScopedSpan span(rec, "core.optimize", parent, item);
    remac::OptimizerConfig opt;
    opt.iterations = config.max_iterations;
    opt.strategy = remac::EliminationStrategy::kAdaptive;
    opt.combiner = config.combiner;
    opt.search = config.search;
    opt.treewise_budget = config.treewise_budget;
    opt.enum_budget = config.enum_budget;
    opt.forced_option_keys = config.forced_option_keys;
    remac::ReMacOptimizer optimizer(config.cluster, &estimator, &catalog, opt);
    REMAC_ASSIGN_OR_RETURN(optimized, optimizer.Optimize(built, nullptr));
  }
  const double est_after_optimize = estimator.seconds();
  {
    ScopedSpan span(rec, "cost.layout", parent, item);
    const remac::CostModel model(config.cluster, &estimator, &catalog);
    (void)remac::AnnotateMultiplyLayouts(&optimized, catalog, model);
  }
  {
    ScopedSpan span(rec, "plan.fusion", parent, item);
    remac::FusionReport fusion;
    if (config.fuse_elementwise) {
      remac::FuseElementwiseChains(&optimized, &fusion);
    }
    extras->fusion_regions += fusion.regions;
  }
  extras->estimate_optimize_s += est_after_optimize;
  extras->estimate_layout_s += estimator.seconds() - est_after_optimize;
  extras->estimate_calls += estimator.calls();
  return optimized;
}

Status RunOne(const ProgramSpec& program, const DataCatalog& catalog,
              const RunConfig& config, SpanRecorder* rec, int64_t pass_span,
              bool keep_env, ProgramRun* out, LayerExtras* extras) {
  const std::string& item = program.label;
  CompiledProgram optimized;
  {
    ScopedSpan program_span(rec, "program", pass_span, item);
    const auto t0 = Clock::now();
    if (rec == nullptr) {
      REMAC_ASSIGN_OR_RETURN(optimized,
                             CompileUntraced(program, catalog, config));
    } else {
      ScopedSpan span(rec, "compile", program_span.id(), item);
      REMAC_ASSIGN_OR_RETURN(optimized,
                             CompileTraced(program, catalog, config, rec,
                                           span.id(), extras));
    }
    const auto t1 = Clock::now();
    remac::TransmissionLedger ledger(config.cluster);
    RunReport report;
    {
      const double measured_before =
          HistogramSum("remac.executor.execute_seconds");
      const double start = rec != nullptr ? rec->Now() : 0.0;
      ScopedSpan span(rec, "execute", program_span.id(), item);
      REMAC_RETURN_NOT_OK(remac::ExecuteCompiled(optimized, catalog, config,
                                                 &ledger, &report));
      if (rec != nullptr) {
        // ExecuteCompiled runs the program, then the cost audit; the
        // executor's own execute_seconds histogram times the first part.
        // Both become derived child spans of "execute".
        const double end = rec->Now();
        const double measured =
            HistogramSum("remac.executor.execute_seconds") - measured_before;
        rec->Add("runtime.execute", span.id(), item, start, start + measured);
        rec->Add("obs.audit", span.id(), item, start + measured, end);
      }
    }
    const auto t2 = Clock::now();
    out->compile_s = Seconds(t0, t1);
    out->execute_s = Seconds(t1, t2);
    out->ledger = TotalsOf(ledger);
    if (keep_env) out->env = std::move(report.env);
  }
  if (rec != nullptr) {
    // The audit's estimator work, attributed by re-running its
    // prediction with the timing decorator. Outside the program span, so
    // it never counts toward pass wall time.
    ScopedSpan span(rec, "obs.predict", pass_span, item);
    TimedEstimator estimator(remac::MakeEstimator(config.estimator, &catalog));
    const int iterations = config.executed_iterations > 0
                               ? std::min(config.executed_iterations,
                                          config.max_iterations)
                               : config.max_iterations;
    (void)remac::PredictProgramCost(optimized, catalog, estimator,
                                    config.cluster,
                                    remac::TraitsFor(config.engine),
                                    iterations);
    extras->estimate_audit_s += estimator.seconds();
  }
  out->optimized = std::move(optimized);
  return Status::OK();
}

}  // namespace

RegistrySnapshot RegistrySnapshot::Take() {
  RegistrySnapshot snap;
  for (const char* name : kCounters) {
    snap.values[name] = static_cast<double>(CounterValue(name));
  }
  for (const char* name : kHistograms) snap.values[name] = HistogramSum(name);
  return snap;
}

std::map<std::string, double> RegistrySnapshot::Delta(
    const RegistrySnapshot& before, const RegistrySnapshot& after) {
  std::map<std::string, double> delta;
  for (const auto& [name, value] : after.values) {
    const auto it = before.values.find(name);
    delta[name] = value - (it == before.values.end() ? 0.0 : it->second);
  }
  return delta;
}

PassResult RunPass(const std::vector<ProgramSpec>& programs,
                   const DataCatalog& catalog, const RunConfig& config,
                   SpanRecorder* recorder, bool keep_env) {
  PassResult pass;
  const RegistrySnapshot before = RegistrySnapshot::Take();
  ScopedSpan pass_span(recorder, "pass", 0, "");
  pass.runs.resize(programs.size());
  for (size_t i = 0; i < programs.size(); ++i) {
    ProgramRun& run = pass.runs[i];
    const Status st = RunOne(programs[i], catalog, config, recorder,
                             pass_span.id(), keep_env, &run, &pass.extras);
    if (!st.ok()) {
      pass.ok = false;
      if (pass.error.empty()) {
        pass.error = programs[i].label + ": " + st.ToString();
      }
      continue;
    }
    pass.compile_s += run.compile_s;
    pass.execute_s += run.execute_s;
    pass.wall_s += run.compile_s + run.execute_s;
    pass.ledger += run.ledger;
  }
  pass.registry_delta =
      RegistrySnapshot::Delta(before, RegistrySnapshot::Take());
  return pass;
}

remac::Result<std::map<std::string, remac::RtValue>> ReferenceEnv(
    const ProgramSpec& program, const DataCatalog& catalog,
    const RunConfig& config) {
  RunConfig reference = config;
  reference.optimizer = remac::OptimizerKind::kAsWritten;
  reference.scheduler = remac::SchedulerKind::kSerial;
  reference.fuse_elementwise = false;
  reference.intermediates = nullptr;
  // The estimator never changes an as-written plan's numerics; the
  // metadata one keeps the built-in cost audit of the reference cheap.
  reference.estimator = remac::EstimatorKind::kMetadata;
  REMAC_ASSIGN_OR_RETURN(RunReport report,
                         remac::RunScript(program.source, catalog, reference));
  return std::move(report.env);
}

EnvCheck CheckAgainstReference(const CompiledProgram& optimized,
                               const ProgramSpec& program,
                               const DataCatalog& catalog,
                               const RunConfig& config) {
  EnvCheck check;
  remac::TransmissionLedger ledger(config.cluster);
  RunReport report;
  const Status st =
      remac::ExecuteCompiled(optimized, catalog, config, &ledger, &report);
  const auto reference = ReferenceEnv(program, catalog, config);
  if (!st.ok() || !reference.ok()) {
    check.ok = false;
    check.detail = !st.ok() ? st.ToString() : reference.status().ToString();
    return check;
  }
  return CompareEnv(report.env, reference.value(), kResultTolerance);
}

std::map<std::string, Metric> LayerMetrics(const PassResult& pass,
                                           const SpanRecorder& recorder,
                                           int64_t first_span) {
  const auto spans = recorder.Summarize(first_span);
  auto total = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total;
  };
  auto self = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self;
  };
  auto delta = [&](const char* name) {
    const auto it = pass.registry_delta.find(name);
    return it == pass.registry_delta.end() ? 0.0 : it->second;
  };
  std::map<std::string, Metric> m;
  auto set = [&](const char* name, double value, const char* unit) {
    m[name] = Metric{value, unit};
  };
  const LayerExtras& x = pass.extras;
  set("lang.parse_s", total("lang.parse"), "s");
  set("plan.build_s", total("plan.build"), "s");
  set("core.optimize_s", total("core.optimize"), "s");
  set("cost.layout_s", total("cost.layout"), "s");
  set("plan.fusion_s", total("plan.fusion"), "s");
  set("bench.compile_unattributed_s", self("compile"), "s");
  set("sparsity.estimate_s", x.estimate_optimize_s + x.estimate_layout_s, "s");
  set("sparsity.estimate_calls", static_cast<double>(x.estimate_calls),
      "count");
  const double optimize_s = total("core.optimize");
  set("sparsity.optimize_share",
      optimize_s > 0.0 ? x.estimate_optimize_s / optimize_s : 0.0, "ratio");
  set("sparsity.audit_estimate_s", x.estimate_audit_s, "s");
  set("core.search_windows", delta("remac.search.windows_visited"), "count");
  set("core.options_found", delta("remac.search.options_found"), "count");
  set("core.costgraph_nodes", delta("remac.costgraph.interval_nodes"),
      "count");
  set("core.probe_evaluations", delta("remac.probe.evaluations"), "count");
  const double withdrawn = delta("remac.probe.withdrawn");
  const double considered = withdrawn + delta("remac.probe.chosen_options");
  set("core.probe_withdrawn_ratio",
      considered > 0.0 ? withdrawn / considered : 0.0, "ratio");
  set("plan.fusion_regions", static_cast<double>(x.fusion_regions), "count");
  set("plan.fusion_bytes_avoided", delta("remac.fusion.bytes_avoided"),
      "bytes");
  const double audit_s = total("obs.audit");
  set("obs.audit_s", audit_s, "s");
  set("obs.predict_s", total("obs.predict"), "s");
  const double multiply_s = delta("remac.executor.multiply_seconds");
  const double elementwise_s = delta("remac.executor.elementwise_seconds");
  const double transpose_s = delta("remac.executor.transpose_seconds");
  set("runtime.execute_s", total("runtime.execute"), "s");
  set("runtime.multiply_s", multiply_s, "s");
  set("runtime.elementwise_s", elementwise_s, "s");
  set("runtime.transpose_s", transpose_s, "s");
  set("bench.execute_unattributed_s",
      total("execute") - audit_s - multiply_s - elementwise_s - transpose_s,
      "s");
  set("matrix.multiplies", delta("remac.kernel.multiplies"), "count");
  set("matrix.gemm_blocked", delta("remac.kernel.gemm_blocked"), "count");
  set("matrix.fused_transpose", delta("remac.kernel.fused_transpose"),
      "count");
  set("matrix.parallel_tasks", delta("remac.kernel.parallel_tasks"), "count");
  set("cluster.flops", pass.ledger.flops, "flop");
  set("cluster.shuffle_bytes", pass.ledger.shuffle_bytes, "bytes");
  set("cluster.broadcast_bytes", pass.ledger.broadcast_bytes, "bytes");
  set("cluster.collection_bytes", pass.ledger.collection_bytes, "bytes");
  set("distributed.dist2d_selected", delta("remac.dist2d.selected"), "count");
  set("sched.pool_tasks", delta("remac.pool.tasks_executed"), "count");
  set("sched.steals", delta("remac.pool.steals"), "count");
  set("sched.queue_wait_s", delta("remac.contention.pool_queue_seconds"),
      "s");
  return m;
}

bool IsRepeatable(const std::string& name, const Metric& metric) {
  for (const char* prefix : {"sched.", "service.", "bench."}) {
    if (name.rfind(prefix, 0) == 0) return false;
  }
  if (name == "sparsity.optimize_share") return false;  // a time ratio
  return metric.unit != "s" && metric.unit != "ms";
}

}  // namespace perfbench
