// Batch workloads: a fixed set of paper programs (script x Table-2
// dataset), compiled and executed once per pass. End-to-end figures are
// medians over untraced passes after one warm-up pass; a traced run
// alternates untraced and traced passes and reports per-layer medians.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "algorithms/scripts.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/trace_context.h"
#include "program_set.h"
#include "sched/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using remac::DataCatalog;
using remac::DatasetSpec;

constexpr int kIterations = 20;
/// Set-ups per run; setup_s reports their median generation time.
constexpr int kSetups = 3;
/// Timed passes per run, at least, whatever --seconds says.
constexpr int kMinPasses = 3;
/// Loop iterations of the output check. The as-written programs run
/// 4-15x slower than the optimized ones, so the check compares the
/// passes' own optimized plans with the as-written programs over a short
/// horizon: two iterations exercise hoisted (LSE) values and per-iteration
/// (CSE) temporaries across an iteration boundary.
constexpr int kCheckIterations = 2;

struct BatchWorkload {
  std::vector<DatasetSpec> datasets;
  std::vector<ProgramSpec> programs;
  /// Kernel fan-out width and the size of both pool lanes.
  int threads = 1;
};

/// Table-2 dataset `name` with its generator seed drawn from the run seed.
DatasetSpec Dataset(const std::string& name, uint64_t seed) {
  DatasetSpec spec = remac::PaperDatasetSpec(name).value();
  spec.seed = MixSeed(seed, spec.seed);
  return spec;
}

remac::RunConfig BatchConfig() {
  remac::RunConfig config;  // adaptive ReMac optimizer, MNC estimator
  config.max_iterations = kIterations;
  config.scheduler = remac::SchedulerKind::kSerial;
  return config;
}

std::unique_ptr<DataCatalog> Generate(const BatchWorkload& w) {
  auto catalog = std::make_unique<DataCatalog>();
  for (const DatasetSpec& spec : w.datasets) {
    const remac::Status st = remac::RegisterDataset(catalog.get(), spec);
    if (!st.ok()) {
      std::fprintf(stderr, "dataset %s: %s\n", spec.name.c_str(),
                   st.ToString().c_str());
      return nullptr;
    }
  }
  return catalog;
}

/// Hash of every generated input matrix: shows the seed reached them.
uint64_t InputFingerprint(const DataCatalog& catalog) {
  uint64_t h = 1469598103934665603ull;
  for (const std::string& name : catalog.Names()) {
    h = HashBytes(name.data(), name.size(), h);
    h = HashMatrix(catalog.Value(name).value(), h);
  }
  return h;
}

double ProgramLatencyMedian(const PassResult& pass) {
  std::vector<double> latencies;
  for (const ProgramRun& run : pass.runs) {
    latencies.push_back(run.compile_s + run.execute_s);
  }
  return Median(latencies);
}

double ProgramLatencyMax(const PassResult& pass) {
  double worst = 0.0;
  for (const ProgramRun& run : pass.runs) {
    worst = std::max(worst, run.compile_s + run.execute_s);
  }
  return worst;
}

void PrintPass(const char* kind, int index, const PassResult& pass) {
  std::printf("%s pass %d: wall %.4f s (compile %.4f, execute %.4f), "
              "sim %.6f s\n",
              kind, index, pass.wall_s, pass.compile_s, pass.execute_s,
              pass.ledger.sim_s);
}

Outcome RunBatch(const Options& options, const BatchWorkload& w) {
  Outcome out;
  remac::SetKernelThreads(w.threads);
  remac::ThreadPool::SetGlobalThreads(w.threads);
  std::printf("threads: kernel %d, pool %d, nproc %d\n", w.threads, w.threads,
              Nproc());
  const remac::RunConfig config = BatchConfig();
  const int programs = static_cast<int>(w.programs.size());

  // --- set-up: generation + registration (median of kSetups), then one
  // warm-up pass whose results every later pass must reproduce bitwise.
  std::vector<double> generate_s;
  std::unique_ptr<DataCatalog> catalog;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    catalog = Generate(w);
    if (catalog == nullptr) {
      out.attempted = out.failed = 1;
      return out;
    }
    generate_s.push_back(Seconds(t0, Clock::now()));
  }
  const PassResult warm = RunPass(w.programs, *catalog, config, nullptr,
                                  /*keep_env=*/true);
  out.attempted += programs;
  if (!warm.ok) {
    std::fprintf(stderr, "warm-up pass failed: %s\n", warm.error.c_str());
    out.failed = out.attempted;
    return out;
  }
  const double setup_s = Median(generate_s) + warm.wall_s;
  std::printf("setup: generate %.4f s (median of %d), warm-up pass %.4f s\n",
              Median(generate_s), kSetups, warm.wall_s);

  // --- measured passes ---------------------------------------------------
  SpanRecorder recorder;
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  std::vector<std::map<std::string, Metric>> layers;
  auto check_pass = [&](const PassResult& pass) {
    out.attempted += programs;
    if (!pass.ok) {
      std::fprintf(stderr, "pass failed: %s\n", pass.error.c_str());
      out.failed += programs;
      return;
    }
    for (int i = 0; i < programs; ++i) {
      const ProgramRun& run = pass.runs[static_cast<size_t>(i)];
      const ProgramRun& first = warm.runs[static_cast<size_t>(i)];
      if (!EnvBitwiseEqual(run.env, first.env) ||
          run.optimized.ToString() != first.optimized.ToString() ||
          run.ledger.sim_s != first.ledger.sim_s) {
        std::fprintf(stderr, "%s: pass differs from the warm-up pass\n",
                     w.programs[static_cast<size_t>(i)].label.c_str());
        ++out.failed;
      }
    }
  };
  const auto measure_start = Clock::now();
  double round_s = 0.0;  // duration of the last loop round
  while (true) {
    // A traced run alternates untraced and traced passes; two of each
    // suffice for per-layer medians and the overhead difference. A round
    // starts only if it should end less than half a round past --seconds,
    // so the measured time centres on --seconds instead of overrunning it.
    const double elapsed = Seconds(measure_start, Clock::now());
    const bool enough =
        static_cast<int>(untraced.size()) >=
            (options.trace ? 2 : kMinPasses) &&
        elapsed + 0.5 * round_s >= options.seconds;
    if (enough) break;
    const auto round_start = Clock::now();
    untraced.push_back(
        RunPass(w.programs, *catalog, config, nullptr, /*keep_env=*/true));
    check_pass(untraced.back());
    PrintPass("untraced", static_cast<int>(untraced.size()), untraced.back());
    for (ProgramRun& run : untraced.back().runs) run.env.clear();
    if (options.trace) {
      // Traced passes alternate with untraced ones, so their difference
      // is the tracing overhead under the same machine conditions.
      remac::Tracer::Global().SetProfiling(true);
      const int64_t first_span = recorder.LastId();
      traced.push_back(
          RunPass(w.programs, *catalog, config, &recorder, /*keep_env=*/true));
      remac::Tracer::Global().SetProfiling(false);
      check_pass(traced.back());
      PrintPass("traced", static_cast<int>(traced.size()), traced.back());
      layers.push_back(LayerMetrics(traced.back(), recorder, first_span));
      for (ProgramRun& run : traced.back().runs) run.env.clear();
    }
    round_s = Seconds(round_start, Clock::now());
  }
  const double peak_rss_mb = PeakRssMb();

  // --- output check: the passes' optimized plans vs the as-written
  // program, both run for kCheckIterations loop iterations. The programs
  // are checked side by side (at most nproc at once): the check is outside
  // the timed interval and dominates a run's overhead when serial.
  remac::RunConfig check_config = config;
  check_config.executed_iterations = kCheckIterations;
  const auto check_start = Clock::now();
  std::vector<EnvCheck> checks(static_cast<size_t>(programs));
  for (int first = 0; first < programs; first += Nproc()) {
    std::vector<std::thread> checkers;
    for (int i = first; i < std::min(programs, first + Nproc()); ++i) {
      checkers.emplace_back([&, i] {
        checks[static_cast<size_t>(i)] = CheckAgainstReference(
            warm.runs[static_cast<size_t>(i)].optimized,
            w.programs[static_cast<size_t>(i)], *catalog, check_config);
      });
    }
    for (std::thread& checker : checkers) checker.join();
  }
  for (int i = 0; i < programs; ++i) {
    const EnvCheck& check = checks[static_cast<size_t>(i)];
    std::printf("check %s vs as-written (%d iterations): %s (max rel error "
                "%.3g)%s%s\n",
                w.programs[static_cast<size_t>(i)].label.c_str(),
                kCheckIterations, check.ok ? "ok" : "MISMATCH",
                check.max_rel_error, check.ok ? "" : ", ",
                check.detail.c_str());
    if (!check.ok) {
      // Every pass ran the warm-up plan bitwise, so each is wrong too.
      out.failed += 1 + static_cast<int64_t>(untraced.size() + traced.size());
    }
  }
  std::printf("check: %d program(s) in %.3f s\n", programs,
              Seconds(check_start, Clock::now()));
  out.failed = std::min(out.failed, out.attempted);

  // --- report ------------------------------------------------------------
  std::vector<double> wall, compile, execute, p50, p99, rps;
  for (const PassResult& pass : untraced) {
    wall.push_back(pass.wall_s);
    compile.push_back(pass.compile_s);
    execute.push_back(pass.execute_s);
    p50.push_back(1e3 * ProgramLatencyMedian(pass));
    p99.push_back(1e3 * ProgramLatencyMax(pass));
    rps.push_back(static_cast<double>(programs) / pass.wall_s);
  }
  for (int i = 0; i < programs; ++i) {
    std::vector<double> compile_i, execute_i;
    for (const PassResult& pass : untraced) {
      if (!pass.ok) continue;
      compile_i.push_back(pass.runs[static_cast<size_t>(i)].compile_s);
      execute_i.push_back(pass.runs[static_cast<size_t>(i)].execute_s);
    }
    if (compile_i.empty()) break;
    std::printf("program %s: median compile %.4f s, execute %.4f s\n",
                w.programs[static_cast<size_t>(i)].label.c_str(),
                Median(compile_i), Median(execute_i));
  }
  std::printf("samples: %zu untraced pass(es) of %d program(s); no request "
              "percentiles on a batch workload (p50_ms = median program "
              "latency, p99_ms = slowest program, each a median over "
              "passes)\n",
              untraced.size(), programs);
  out.determinism["sim_s"] = warm.ledger.sim_s;
  out.determinism["cluster.flops"] = warm.ledger.flops;
  out.determinism["cluster.shuffle_bytes"] = warm.ledger.shuffle_bytes;
  out.determinism["cluster.broadcast_bytes"] = warm.ledger.broadcast_bytes;
  out.determinism["cluster.collection_bytes"] = warm.ledger.collection_bytes;
  out.determinism["inputs.fingerprint"] =
      static_cast<double>(InputFingerprint(*catalog) >> 11);
  if (!options.trace) {
    out.Set("wall_s", Median(wall), "s");
    out.Set("compile_s", Median(compile), "s");
    out.Set("execute_s", Median(execute), "s");
    out.Set("sim_s", warm.ledger.sim_s, "s");
    out.Set("p50_ms", Median(p50), "ms");
    out.Set("p99_ms", Median(p99), "ms");
    out.Set("sat_rps", Median(rps), "1/s");
    out.Set("setup_s", setup_s, "s");
    out.Set("peak_rss_mb", peak_rss_mb, "MiB");
    return out;
  }

  // Per-layer: median over traced passes of each per-pass figure.
  for (const auto& [name, first] : layers.front()) {
    std::vector<double> values;
    for (const auto& pass_layers : layers) {
      values.push_back(pass_layers.at(name).value);
    }
    out.Set(name, Median(values), first.unit);
  }
  std::vector<double> traced_wall;
  for (const PassResult& pass : traced) traced_wall.push_back(pass.wall_s);
  out.Set("bench.trace_overhead_s", Median(traced_wall) - Median(wall), "s");
  // The serving layers are not loaded by a batch workload.
  for (const char* name : {"service.plan_hit_ratio", "service.cold_ratio",
                           "service.mat_hit_ratio"}) {
    out.Set(name, 0.0, "ratio");
  }
  for (const char* name :
       {"service.cold_s", "service.warm_s", "service.flight_wait_s"}) {
    out.Set(name, 0.0, "s");
  }
  for (const char* name :
       {"service.plan_evictions", "service.shed", "service.degraded"}) {
    out.Set(name, 0.0, "count");
  }
  out.Set("bench.gen_late_ms", 0.0, "ms");
  out.Set("bench.threads", w.threads, "count");
  out.Set("bench.kernel_threads", w.threads, "count");
  out.Set("bench.clients", 1, "count");  // programs run one after another
  out.Set("bench.nproc", Nproc(), "count");
  for (const auto& [name, metric] : out.metrics) {
    if (IsRepeatable(name, metric)) out.determinism[name] = metric.value;
  }
  if (!options.trace_out.empty() &&
      !recorder.WriteChromeJson(options.trace_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.trace_out.c_str());
  }
  return out;
}

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Outcome RunPaperSparse(const Options& options) {
  BatchWorkload w;
  for (const char* ds : {"cri2", "red2"}) {
    w.datasets.push_back(Dataset(ds, options.seed));
  }
  for (const char* ds : {"cri2", "red2"}) {
    w.programs.push_back(
        {std::string("dfp/") + ds, remac::DfpScript(ds, kIterations)});
    w.programs.push_back(
        {std::string("bfgs/") + ds, remac::BfgsScript(ds, kIterations)});
  }
  // Two threads, as on paper-dense: with four kernel threads on a 4-core
  // machine the sparse execute time swung 1.8-2.9 s between runs, since a
  // multiply waits for its slowest thread whenever any core is busy.
  w.threads = std::min(2, Nproc());
  return RunBatch(options, w);
}

Outcome RunPaperDense(const Options& options) {
  BatchWorkload w;
  w.datasets.push_back(Dataset("red1", options.seed));
  w.programs.push_back(
      {"gnmf/red1", remac::GnmfScript("red1", /*rank=*/10, kIterations)});
  w.programs.push_back(
      {"logreg/red1", remac::LogisticRegressionScript("red1", kIterations)});
  // Two threads: dense GNMF execute measured both faster and steadier
  // at 2 than at 4 on a 4-core machine.
  w.threads = std::min(2, Nproc());
  return RunBatch(options, w);
}

}  // namespace perfbench
