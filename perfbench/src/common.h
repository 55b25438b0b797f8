// Shared pieces of the end-to-end benchmark: clocks and order
// statistics, the result record printed as the last stdout line, the
// in-memory span recorder of traced runs, the timing decorator around the
// sparsity-estimator interface, registry readers, and output checks.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "runtime/executor.h"
#include "sparsity/estimator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to);

/// Median of `values` (mean of the middle pair for even counts).
double Median(std::vector<double> values);

/// Nearest-rank quantile of an ascending-sorted sample.
double SortedQuantile(const std::vector<double>& sorted, double q);

/// Logical CPUs this process may run on (the `nproc` figure).
int Nproc();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Command-line options.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its spans (Chrome-trace JSON).
  std::string trace_out;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the result record's four keys plus the determinism
/// record (ledger and counter values that must repeat for a seed).
struct Outcome {
  int64_t attempted = 0;
  int64_t failed = 0;  // errors + output mismatches
  std::map<std::string, Metric> metrics;
  std::map<std::string, double> determinism;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// FNV-1a over raw bytes, chained through `h`.
uint64_t HashBytes(const void* data, size_t size, uint64_t h);
/// Content hash of a matrix (shape + stored payload).
uint64_t HashMatrix(const remac::Matrix& m, uint64_t h);

/// One recorded interval. `parent` is 0 for roots; `item` names the
/// program or request the span belongs to.
struct Span {
  int64_t id = 0;
  int64_t parent = 0;
  std::string name;
  std::string item;
  double start = 0.0;  // seconds since the recorder's epoch
  double end = 0.0;
};

/// \brief In-memory span store of a traced run. Thread-safe; spans are
/// written out once, at exit.
class SpanRecorder {
 public:
  SpanRecorder();
  double Now() const;
  /// Records a finished span and returns its id.
  int64_t Add(const std::string& name, int64_t parent, const std::string& item,
              double start, double end);
  /// Opens a span ending at Close(id); returns its id.
  int64_t Open(const std::string& name, int64_t parent,
               const std::string& item);
  void Close(int64_t id);

  /// Total and self time per span name over spans with id > `after`
  /// (self = duration minus the union of its children's intervals).
  struct Times {
    double total = 0.0;
    double self = 0.0;
    int64_t count = 0;
  };
  std::map<std::string, Times> Summarize(int64_t after) const;
  int64_t LastId() const;

  /// Writes every span as a Chrome-trace JSON array.
  bool WriteChromeJson(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // spans_[id - 1]
};

/// RAII span (no-op when `recorder` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, int64_t parent,
             const std::string& item);
  ~ScopedSpan();
  int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  int64_t id_ = 0;
};

/// \brief Timing decorator around any sparsity estimator: counts calls
/// and wall time spent inside the wrapped propagation rules.
class TimedEstimator : public remac::SparsityEstimator {
 public:
  explicit TimedEstimator(std::unique_ptr<remac::SparsityEstimator> inner)
      : inner_(std::move(inner)) {}

  const char* Name() const override { return inner_->Name(); }
  remac::NodeStats LeafStats(const std::string& name,
                             const remac::MatrixStats& stats) const override;
  remac::NodeStats GeneratorStats(remac::PlanOp op, int64_t rows,
                                  int64_t cols) const override;
  remac::NodeStats Multiply(const remac::NodeStats& a,
                            const remac::NodeStats& b) const override;
  remac::NodeStats Transpose(const remac::NodeStats& a) const override;
  remac::NodeStats Elementwise(remac::PlanOp op, const remac::NodeStats& a,
                               const remac::NodeStats& b) const override;
  remac::NodeStats ScalarBroadcast(remac::PlanOp op,
                                   const remac::NodeStats& m) const override;

  int64_t calls() const { return calls_.load(); }
  double seconds() const { return static_cast<double>(nanos_.load()) * 1e-9; }

 private:
  class Tick;
  std::unique_ptr<remac::SparsityEstimator> inner_;
  mutable std::atomic<int64_t> calls_{0};
  mutable std::atomic<int64_t> nanos_{0};
};

/// Current values of process-wide registry instruments.
int64_t CounterValue(const std::string& name);
double HistogramSum(const std::string& name);

/// Outcome of comparing a result environment against a reference.
struct EnvCheck {
  bool ok = true;
  double max_rel_error = 0.0;
  std::string detail;  // first mismatch, for the log
};

/// Every variable of `reference` must exist in `got` with the same shape
/// and cells within `tolerance` relative error (scaled by max(1, |x|)).
/// Non-finite cells must match exactly.
EnvCheck CompareEnv(const std::map<std::string, remac::RtValue>& got,
                    const std::map<std::string, remac::RtValue>& reference,
                    double tolerance);

/// Bitwise equality of two environments over `reference`'s variables.
bool EnvBitwiseEqual(const std::map<std::string, remac::RtValue>& got,
                     const std::map<std::string, remac::RtValue>& reference);

/// Relative tolerance between optimized and as-written results: the
/// optimizer reassociates multiplication chains and hoists loop
/// constants, so results agree to rounding, not bitwise.
inline constexpr double kResultTolerance = 1e-6;

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
