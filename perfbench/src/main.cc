// perfbench: the repository's end-to-end benchmark.
//
//   perfbench --workload paper-sparse|paper-dense|serve-zipf --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//
// Prints progress lines, one "determinism" line (ledger and counter
// values that must repeat for a seed), and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics from untraced passes; --trace 1 the per-layer
// metrics of a traced run. Exits non-zero when any output is wrong.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-sparse|paper-dense|serve-zipf --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  Outcome out;
  if (options.workload == "paper-sparse") {
    out = RunPaperSparse(options);
  } else if (options.workload == "paper-dense") {
    out = RunPaperDense(options);
  } else if (options.workload == "serve-zipf") {
    out = RunServeZipf(options);
  } else {
    return Usage("unknown --workload");
  }

  std::string determinism;
  for (const auto& [name, value] : out.determinism) {
    determinism += (determinism.empty() ? "" : ", ") + ("\"" + name + "\": ") +
                   JsonNumber(value);
  }
  std::printf("determinism {%s}\n", determinism.c_str());
  for (const auto& [name, metric] : out.metrics) {
    std::printf("metric %-32s %.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("fail_ratio %.6g (%lld of %lld)\n",
              out.attempted > 0 ? static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted)
                                : 1.0,
              static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  std::string metrics;
  for (const auto& [name, metric] : out.metrics) {
    metrics += (metrics.empty() ? "" : ", ") + ("\"" + name + "\": ") +
               "{\"value\": " + JsonNumber(metric.value) + ", \"unit\": \"" +
               metric.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
