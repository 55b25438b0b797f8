// serve-zipf: a corpus of distinct scripts sharing one Gram chain over a
// mid-size sparse dataset, requested with Zipf(1.1) popularity through a
// PlanService (64-entry plan cache, matcache on). Phases: set-up with a
// closed-loop warm-up, an open loop at a fixed absolute rate (latency from
// the scheduled arrival), a closed loop of fixed-size rounds with one
// client per core, and a sequential replay of the most popular scripts
// that books the simulated cluster time into the benchmark's own ledger.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.h"
#include "data/generators.h"
#include "matrix/kernels.h"
#include "obs/trace_context.h"
#include "program_set.h"
#include "sched/thread_pool.h"
#include "service/plan_service.h"
#include "workloads.h"

namespace perfbench {
namespace {

using remac::DataCatalog;
using remac::PlanService;
using remac::RtValue;
using remac::ServiceReport;
using remac::ServiceRequest;

constexpr int kCorpusSize = 400;
constexpr double kZipfExponent = 1.1;
constexpr int kSetups = 3;
/// Closed-loop warm-up requests, part of set-up: fills both caches.
constexpr int kWarmupRequests = 800;
/// Open-loop arrival rate, fixed in absolute terms so a faster service
/// shows as lower latency rather than as a different load. Under half
/// the closed-loop capacity (~470 req/s) measured on a 4-core machine.
constexpr double kOpenRate = 120.0;
/// How long before each arrival the open-loop generator stops sleeping
/// and spins.
constexpr auto kGeneratorSpin = std::chrono::milliseconds(2);
/// Share of --seconds spent in the open loop; the closed loop gets the
/// rest, in rounds of kRoundRequests.
constexpr double kOpenShare = 0.75;
/// Open-loop arrivals per latency window, at least: enough that each
/// window's p99 has ten samples above it.
constexpr size_t kWindowRequests = 1000;
constexpr int kRoundRequests = 256;
constexpr int kMinRounds = 3;
/// Scripts in the replay that books sim_s: the plan cache's worth of the
/// most popular ones, so the program set is the same for every seed.
constexpr int kReplayScripts = 64;

/// Distinct script k: the shared Gram chain t(A) %*% A plus per-script
/// arithmetic whose constant makes every fingerprint unique. Four
/// structural shapes cycle so the optimizer sees more than one plan; each
/// costs one 128 x 128 x 128 multiply once the Gram matrix is cached, so
/// warm requests cost about the same whichever script they name. Every
/// output is 128 x 128.
std::string CorpusScript(int k) {
  const std::string c = std::to_string(k + 1) + ".0";
  switch (k % 4) {
    case 0:
      return "A = read(\"load\");\n"
             "g = t(A) %*% A;\n"
             "y = " + c + " * g + g %*% g;\n";
    case 1:
      return "A = read(\"load\");\n"
             "g = t(A) %*% A;\n"
             "y = t(g) %*% (g + " + c + " * g);\n";
    case 2:
      return "A = read(\"load\");\n"
             "b = read(\"load_b\");\n"
             "h = t(A) %*% b;\n"
             "y = (t(A) %*% A) %*% (t(A) %*% A + " + c + " * (h %*% t(h)));\n";
    default:
      return "A = read(\"load\");\n"
             "g = t(A) %*% A;\n"
             "y = (g - " + c + " * g) %*% t(g);\n";
  }
}

remac::RunConfig RequestConfig() {
  remac::RunConfig config;  // adaptive ReMac optimizer, MNC estimator
  config.max_iterations = 8;
  config.executed_iterations = 1;
  config.scheduler = remac::SchedulerKind::kSerial;
  return config;
}

/// What the benchmark keeps per served request.
struct Served {
  double latency_s = 0.0;  // completion - scheduled arrival (open loop)
  double queue_s = 0.0;    // service start - scheduled arrival
  double compile_s = 0.0;  // service-reported parse + optimize
  double execute_s = 0.0;
  bool cold = false;  // the plan was not in the cache
  bool error = false;
  bool mismatch = false;
};

class ServeBench {
 public:
  explicit ServeBench(const Options& options)
      : options_(options),
        clients_(Nproc()),
        pool_(std::max(1, Nproc() - 1)) {}

  Outcome Run();

 private:
  std::unique_ptr<DataCatalog> Generate() const;
  /// Serves one request and checks its output ("y") against the
  /// reference after the completion stamp. With `recorder` set, records
  /// a request span (from `arrival`) with queue/parse/optimize/execute
  /// children derived from the service's own timing split.
  Served Serve(int script, Clock::time_point arrival, SpanRecorder* recorder,
               const std::string& item);
  /// Closed loop: `clients_` clients drain `count` requests of `seq`
  /// (cycled) from `*cursor` on; returns the round's wall time.
  double Round(const std::vector<int>& seq, int count, size_t* cursor,
               SpanRecorder* recorder, std::vector<Served>* served);

  const Options& options_;
  /// Closed-loop client threads: one per core.
  const int clients_;
  /// Request-lane workers of the open loop (and execution-lane size):
  /// one core fewer than nproc, so the arrival generator always has a
  /// core and arrivals stay on schedule.
  const int pool_;
  std::unique_ptr<DataCatalog> catalog_;
  std::unique_ptr<PlanService> service_;
  std::vector<std::string> corpus_;
  std::vector<RtValue> reference_;  // per corpus script: its "y"
  int64_t next_request_id_ = 0;
};

std::unique_ptr<DataCatalog> ServeBench::Generate() const {
  remac::DatasetSpec spec;
  spec.name = "load";
  spec.rows = 4000;
  spec.cols = 128;
  spec.sparsity = 0.05;
  spec.seed = MixSeed(options_.seed, 0x5e47e);
  auto catalog = std::make_unique<DataCatalog>();
  if (!remac::RegisterDataset(catalog.get(), spec).ok()) return nullptr;
  return catalog;
}

Served ServeBench::Serve(int script, Clock::time_point arrival,
                         SpanRecorder* recorder, const std::string& item) {
  Served served;
  const double start_s = recorder != nullptr ? recorder->Now() : 0.0;
  const auto start = Clock::now();
  const auto result = service_->Run(
      ServiceRequest{corpus_[static_cast<size_t>(script)], RequestConfig()});
  const auto done = Clock::now();
  served.latency_s = Seconds(arrival, done);
  served.queue_s = Seconds(arrival, start);
  if (!result.ok()) {
    served.error = true;
    return served;
  }
  const ServiceReport& report = result.value();
  served.cold = !report.cache_hit;
  served.compile_s =
      report.timing.parse_seconds + report.timing.optimize_seconds;
  served.execute_s = report.timing.execute_seconds;
  if (recorder != nullptr) {
    const double queued = Seconds(arrival, start);
    const double end_s = start_s + Seconds(start, done);
    const int64_t root =
        recorder->Add("request", 0, item, start_s - queued, end_s);
    recorder->Add("queue", root, item, start_s - queued, start_s);
    const int64_t run = recorder->Add("service.run", root, item, start_s,
                                      end_s);
    double t = start_s;
    for (const auto& [name, seconds] :
         {std::pair<const char*, double>{"service.parse",
                                         report.timing.parse_seconds},
          {"service.optimize", report.timing.optimize_seconds},
          {"service.execute", report.timing.execute_seconds}}) {
      recorder->Add(name, run, item, t, t + seconds);
      t += seconds;
    }
  }
  const auto it = report.run.env.find("y");
  const RtValue& want = reference_[static_cast<size_t>(script)];
  if (it == report.run.env.end() ||
      !CompareEnv({{"y", it->second}}, {{"y", want}}, kResultTolerance).ok) {
    served.mismatch = true;
  }
  return served;
}

double ServeBench::Round(const std::vector<int>& seq, int count,
                         size_t* cursor, SpanRecorder* recorder,
                         std::vector<Served>* served) {
  const size_t begin = served->size();
  served->resize(begin + static_cast<size_t>(count));
  std::atomic<int> next{0};
  const size_t base = *cursor;
  const int64_t first_id = next_request_id_;
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < clients_; ++c) {
    clients.emplace_back([&] {
      while (true) {
        const int k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= count) return;
        const int script = seq[(base + static_cast<size_t>(k)) % seq.size()];
        (*served)[begin + static_cast<size_t>(k)] =
            Serve(script, Clock::now(), recorder,
                  "closed-" + std::to_string(first_id + k));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double wall = Seconds(t0, Clock::now());
  *cursor += static_cast<size_t>(count);
  next_request_id_ += count;
  return wall;
}

Outcome ServeBench::Run() {
  Outcome out;
  // Requests run side by side, one per request-lane worker (open loop)
  // or client thread (closed loop); kernels stay serial inside a request
  // so the two levels of parallelism never oversubscribe the cores.
  remac::SetKernelThreads(1);
  remac::ThreadPool::SetGlobalThreads(pool_);
  std::printf("threads: kernel 1, pool %d, clients %d, nproc %d\n", pool_,
              clients_, Nproc());
  for (int k = 0; k < kCorpusSize; ++k) corpus_.push_back(CorpusScript(k));
  remac::Rng rng(MixSeed(options_.seed, 0x2e9));
  const remac::ZipfSampler sampler(kCorpusSize, kZipfExponent);
  auto draw = [&](int n) {
    std::vector<int> seq;
    for (int k = 0; k < n; ++k) {
      seq.push_back(static_cast<int>(sampler.Sample(rng)));
    }
    return seq;
  };
  const int open_requests = std::max(
      1000, static_cast<int>(kOpenRate * kOpenShare * options_.seconds));
  const std::vector<int> warm_seq = draw(kWarmupRequests);
  const std::vector<int> open_seq = draw(open_requests);
  const std::vector<int> closed_seq = draw(20000);

  // --- set-up --------------------------------------------------------------
  std::vector<double> generate_s;
  for (int k = 0; k < kSetups; ++k) {
    const auto t0 = Clock::now();
    catalog_ = Generate();
    if (catalog_ == nullptr) {
      std::fprintf(stderr, "dataset generation failed\n");
      out.attempted = out.failed = 1;
      return out;
    }
    generate_s.push_back(Seconds(t0, Clock::now()));
  }
  remac::ServiceOptions service_options;
  service_options.cache_capacity = 64;  // matcache: default budget, on

  // References first (excluded from set-up time): each corpus script
  // as written, on the serial executor.
  const auto reference_start = Clock::now();
  for (int k = 0; k < kCorpusSize; ++k) {
    const auto env = ReferenceEnv({"ref", corpus_[static_cast<size_t>(k)]},
                                  *catalog_, RequestConfig());
    if (!env.ok() || env.value().count("y") == 0) {
      std::fprintf(stderr, "reference for script %d failed\n", k);
      out.attempted = out.failed = 1;
      return out;
    }
    reference_.push_back(env.value().at("y"));
  }

  std::printf("references: %d script(s) as written in %.3f s\n",
              kCorpusSize, Seconds(reference_start, Clock::now()));
  const auto warm_start = Clock::now();
  service_ = std::make_unique<PlanService>(catalog_.get(), service_options);
  std::vector<Served> warm_served;
  size_t warm_cursor = 0;
  Round(warm_seq, kWarmupRequests, &warm_cursor, nullptr, &warm_served);
  const double warm_s = Seconds(warm_start, Clock::now());
  const double setup_s = Median(generate_s) + warm_s;
  std::printf("setup: generate %.4f s (median of %d), warm-up %d requests "
              "%.4f s\n",
              Median(generate_s), kSetups, kWarmupRequests, warm_s);

  SpanRecorder recorder;
  SpanRecorder* trace = options_.trace ? &recorder : nullptr;
  const remac::ServiceStats stats_before = service_->stats();
  const RegistrySnapshot registry_before = RegistrySnapshot::Take();
  if (options_.trace) remac::Tracer::Global().SetProfiling(true);

  // --- open loop -----------------------------------------------------------
  std::vector<Served> open_served(open_seq.size());
  std::vector<double> late_s(open_seq.size(), 0.0);
  {
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;
    const auto t0 = Clock::now() + std::chrono::milliseconds(5);
    for (size_t k = 0; k < open_seq.size(); ++k) {
      const auto arrival =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(static_cast<double>(k) /
                                                 kOpenRate));
      // Sleep to just before the arrival, then spin: a sleeping thread
      // wakes late by the timer slack plus, on a virtual machine, however
      // long the host takes to run an idle virtual CPU again, and every
      // bit of that lateness would be charged to the request's latency.
      std::this_thread::sleep_until(arrival - kGeneratorSpin);
      while (Clock::now() < arrival) {
      }
      late_s[k] = Seconds(arrival, Clock::now());
      remac::ThreadPool::RequestLane().Submit([&, k, arrival] {
        open_served[k] = Serve(open_seq[k], arrival, trace,
                               "open-" + std::to_string(k));
        std::lock_guard<std::mutex> lock(mu);
        if (++done == open_seq.size()) cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == open_seq.size(); });
  }

  // --- closed loop: fixed-size rounds; traced runs alternate untraced and
  // traced rounds so their difference is the tracing overhead.
  std::vector<Served> closed_served;
  std::vector<double> round_wall, round_compile, round_execute;
  std::vector<double> traced_round_wall;
  {
    size_t cursor = 0;
    const double closed_seconds = (1.0 - kOpenShare) * options_.seconds;
    const auto t0 = Clock::now();
    int rounds = 0;
    while (rounds < kMinRounds * (options_.trace ? 2 : 1) ||
           Seconds(t0, Clock::now()) < closed_seconds) {
      const bool traced_round = options_.trace && rounds % 2 == 1;
      remac::Tracer::Global().SetProfiling(traced_round);
      const size_t begin = closed_served.size();
      const double wall = Round(closed_seq, kRoundRequests, &cursor,
                                traced_round ? trace : nullptr,
                                &closed_served);
      ++rounds;
      if (traced_round) {
        traced_round_wall.push_back(wall);
        continue;
      }
      double compile = 0.0;
      double execute = 0.0;
      for (size_t i = begin; i < closed_served.size(); ++i) {
        compile += closed_served[i].compile_s;
        execute += closed_served[i].execute_s;
      }
      round_wall.push_back(wall);
      round_compile.push_back(compile);
      round_execute.push_back(execute);
    }
    remac::Tracer::Global().SetProfiling(false);
  }
  const remac::ServiceStats stats_after = service_->stats();
  const auto registry_delta =
      RegistrySnapshot::Delta(registry_before, RegistrySnapshot::Take());
  const double peak_rss_mb = PeakRssMb();

  // --- replay: the kReplayScripts most popular scripts (Zipf ranks 0..),
  // once each, cold, into the benchmark's own ledger: the simulated
  // cluster time of the plans the service chooses, on a fixed program set.
  std::vector<ProgramSpec> replay_programs;
  for (int k = 0; k < kReplayScripts; ++k) {
    replay_programs.push_back(
        {"script-" + std::to_string(k), corpus_[static_cast<size_t>(k)]});
  }
  const auto replay_start = Clock::now();
  const int64_t replay_first_span = recorder.LastId();
  const PassResult replay = RunPass(replay_programs, *catalog_,
                                    RequestConfig(), trace, /*keep_env=*/false);
  const double replay_s = Seconds(replay_start, Clock::now());
  if (!replay.ok) {
    std::fprintf(stderr, "replay failed: %s\n", replay.error.c_str());
  }

  // --- failures and outputs -------------------------------------------------
  auto tally = [&](const std::vector<Served>& all) {
    for (const Served& s : all) {
      ++out.attempted;
      if (s.error || s.mismatch) ++out.failed;
    }
  };
  tally(warm_served);
  tally(open_served);
  tally(closed_served);
  out.attempted += static_cast<int64_t>(replay_programs.size());
  if (!replay.ok) out.failed += static_cast<int64_t>(replay_programs.size());
  std::printf("check: %lld of %lld request(s) failed or mismatched the "
              "as-written reference\n",
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));

  std::vector<double> latency;
  std::vector<double> warm_latency;
  std::vector<double> cold_latency;
  for (const Served& s : open_served) {
    latency.push_back(s.latency_s);
    (s.cold ? cold_latency : warm_latency).push_back(s.latency_s);
  }
  std::vector<double> queue;
  for (const Served& s : open_served) queue.push_back(s.queue_s);
  std::sort(queue.begin(), queue.end());
  std::sort(warm_latency.begin(), warm_latency.end());
  std::sort(cold_latency.begin(), cold_latency.end());
  std::printf("open loop: warm %zu p50 %.3f ms p90 %.3f ms; cold %zu p50 "
              "%.3f ms p90 %.3f ms\n",
              warm_latency.size(), 1e3 * SortedQuantile(warm_latency, 0.5),
              1e3 * SortedQuantile(warm_latency, 0.9), cold_latency.size(),
              1e3 * SortedQuantile(cold_latency, 0.5),
              1e3 * SortedQuantile(cold_latency, 0.9));
  // p50 and p99 are medians over consecutive windows of at least
  // kWindowRequests arrivals, each window's percentiles taken on its own
  // samples, so a slowdown of the machine shorter than half the open loop
  // moves a minority of windows rather than the reported figure.
  const size_t windows =
      std::max<size_t>(1, latency.size() / kWindowRequests);
  std::vector<double> window_p50, window_p99;
  long long above_p99 = 0;  // within its own window, summed over windows
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> part(
        latency.begin() +
            static_cast<std::ptrdiff_t>(w * latency.size() / windows),
        latency.begin() +
            static_cast<std::ptrdiff_t>((w + 1) * latency.size() / windows));
    std::sort(part.begin(), part.end());
    window_p50.push_back(SortedQuantile(part, 0.50));
    window_p99.push_back(SortedQuantile(part, 0.99));
    above_p99 += part.end() - std::upper_bound(part.begin(), part.end(),
                                               window_p99.back());
    std::printf("open loop window %zu: %zu request(s), p50 %.3f ms, p99 "
                "%.3f ms\n",
                w + 1, part.size(), 1e3 * window_p50.back(),
                1e3 * window_p99.back());
  }
  const double p50 = Median(window_p50);
  const double p99 = Median(window_p99);
  std::vector<double> late_sorted = late_s;
  std::sort(late_sorted.begin(), late_sorted.end());
  std::printf("open loop: %zu request(s) at %.0f req/s in %zu window(s), "
              "median p50 %.3f ms, median p99 %.3f ms, %lld sample(s) above "
              "their window's p99; generator late p99 %.3f ms, max %.3f "
              "ms\n",
              latency.size(), kOpenRate, windows, 1e3 * p50, 1e3 * p99,
              above_p99, 1e3 * SortedQuantile(late_sorted, 0.99),
              1e3 * late_sorted.back());
  std::printf("open loop: queue (arrival to service start) p50 %.3f ms, "
              "p90 %.3f ms; generator late p50 %.3f ms\n",
              1e3 * SortedQuantile(queue, 0.5), 1e3 * SortedQuantile(queue, 0.9),
              1e3 * SortedQuantile(late_sorted, 0.5));
  std::vector<double> rps;
  for (const double wall : round_wall) rps.push_back(kRoundRequests / wall);
  std::printf("closed loop: %zu round(s) of %d request(s), %d client(s), "
              "median %.1f req/s\n",
              round_wall.size(), kRoundRequests, clients_, Median(rps));
  std::printf("replay: %zu script(s) in %.3f s, sim %.6f s\n",
              replay_programs.size(), replay_s, replay.ledger.sim_s);

  out.determinism["sim_s"] = replay.ledger.sim_s;
  out.determinism["cluster.flops"] = replay.ledger.flops;
  uint64_t h =
      HashMatrix(catalog_->Value("load").value(), 1469598103934665603ull);
  h = HashBytes(open_seq.data(), open_seq.size() * sizeof(int), h);
  out.determinism["inputs.fingerprint"] = static_cast<double>(h >> 11);
  if (!options_.trace) {
    out.Set("wall_s", Median(round_wall), "s");
    out.Set("compile_s", Median(round_compile), "s");
    out.Set("execute_s", Median(round_execute), "s");
    out.Set("sim_s", replay.ledger.sim_s, "s");
    out.Set("p50_ms", 1e3 * p50, "ms");
    out.Set("p99_ms", 1e3 * p99, "ms");
    out.Set("sat_rps", Median(rps), "1/s");
    out.Set("setup_s", setup_s, "s");
    out.Set("peak_rss_mb", peak_rss_mb, "MiB");
    return out;
  }

  out.metrics = LayerMetrics(replay, recorder, replay_first_span);
  auto delta = [&](const char* name) { return registry_delta.at(name); };
  const remac::ServiceStats& a = stats_after;
  const remac::ServiceStats& b = stats_before;
  const double requests = static_cast<double>(a.requests - b.requests);
  const double warm = static_cast<double>(a.warm_requests - b.warm_requests);
  const double cold = static_cast<double>(a.cold_requests - b.cold_requests);
  out.Set("service.plan_hit_ratio", warm / requests, "ratio");
  out.Set("service.cold_ratio", cold / requests, "ratio");
  out.Set("service.cold_s",
          cold > 0 ? (a.cold_seconds - b.cold_seconds) / cold : 0.0, "s");
  out.Set("service.warm_s",
          warm > 0 ? (a.warm_seconds - b.warm_seconds) / warm : 0.0, "s");
  const double probes = delta("remac.matcache.probes");
  out.Set("service.mat_hit_ratio",
          probes > 0 ? delta("remac.matcache.hits") / probes : 0.0, "ratio");
  out.Set("service.plan_evictions", delta("remac.plancache.evictions"),
          "count");
  out.Set("service.flight_wait_s", delta("remac.service.flight_wait_seconds"),
          "s");
  out.Set("service.shed", delta("remac.service.shed"), "count");
  out.Set("service.degraded", delta("remac.service.degraded"), "count");
  out.Set("sched.pool_tasks", delta("remac.pool.tasks_executed"), "count");
  out.Set("sched.steals", delta("remac.pool.steals"), "count");
  out.Set("sched.queue_wait_s", delta("remac.contention.pool_queue_seconds"),
          "s");
  out.Set("bench.gen_late_ms", 1e3 * SortedQuantile(late_sorted, 0.99), "ms");
  out.Set("bench.trace_overhead_s",
          Median(traced_round_wall) - Median(round_wall), "s");
  out.Set("bench.threads", pool_, "count");
  out.Set("bench.clients", clients_, "count");
  out.Set("bench.kernel_threads", 1, "count");
  out.Set("bench.nproc", Nproc(), "count");
  for (const auto& [name, metric] : out.metrics) {
    if (IsRepeatable(name, metric)) out.determinism[name] = metric.value;
  }
  if (!options_.trace_out.empty() &&
      !recorder.WriteChromeJson(options_.trace_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options_.trace_out.c_str());
  }
  return out;
}

}  // namespace

Outcome RunServeZipf(const Options& options) {
  ServeBench bench(options);
  return bench.Run();
}

}  // namespace perfbench
