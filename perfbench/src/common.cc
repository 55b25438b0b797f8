#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace perfbench {

using remac::Matrix;
using remac::NodeStats;
using remac::RtValue;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q of the mass at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t HashBytes(const void* data, size_t size, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashMatrix(const Matrix& m, uint64_t h) {
  const int64_t shape[2] = {m.rows(), m.cols()};
  h = HashBytes(shape, sizeof(shape), h);
  if (m.is_dense()) {
    const auto& v = m.dense().values();
    return HashBytes(v.data(), v.size() * sizeof(double), h);
  }
  const auto& csr = m.csr();
  h = HashBytes(csr.row_ptr().data(), csr.row_ptr().size() * sizeof(int64_t),
                h);
  h = HashBytes(csr.col_idx().data(), csr.col_idx().size() * sizeof(int32_t),
                h);
  return HashBytes(csr.values().data(), csr.values().size() * sizeof(double),
                   h);
}

// --- spans ----------------------------------------------------------------

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

double SpanRecorder::Now() const { return Seconds(epoch_, Clock::now()); }

int64_t SpanRecorder::Add(const std::string& name, int64_t parent,
                          const std::string& item, double start, double end) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.id = static_cast<int64_t>(spans_.size()) + 1;
  span.parent = parent;
  span.name = name;
  span.item = item;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanRecorder::Open(const std::string& name, int64_t parent,
                           const std::string& item) {
  const double now = Now();
  return Add(name, parent, item, now, now);
}

void SpanRecorder::Close(int64_t id) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id - 1)].end = now;
}

int64_t SpanRecorder::LastId() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(spans_.size());
}

std::map<std::string, SpanRecorder::Times> SpanRecorder::Summarize(
    int64_t after) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<int64_t, std::vector<std::pair<double, double>>> children;
  for (size_t i = static_cast<size_t>(after); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent > after) children[s.parent].emplace_back(s.start, s.end);
  }
  std::map<std::string, Times> out;
  for (size_t i = static_cast<size_t>(after); i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = s.end - s.start;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Union of the children's intervals, clipped to the parent.
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      double cur_start = 0.0;
      double cur_end = -1.0;
      for (auto [a, b] : intervals) {
        a = std::max(a, s.start);
        b = std::min(b, s.end);
        if (b <= a) continue;
        if (a > cur_end) {
          if (cur_end > cur_start) covered += cur_end - cur_start;
          cur_start = a;
          cur_end = b;
        } else {
          cur_end = std::max(cur_end, b);
        }
      }
      if (cur_end > cur_start) covered += cur_end - cur_start;
    }
    Times& t = out[s.name];
    t.total += duration;
    t.self += std::max(0.0, duration - covered);
    t.count += 1;
  }
  return out;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span_id\": %lld, "
                 "\"parent\": %lld, \"item\": \"%s\"}}%s\n",
                 s.name.c_str(), s.start * 1e6, (s.end - s.start) * 1e6,
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.item.c_str(),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanRecorder* recorder, const std::string& name,
                       int64_t parent, const std::string& item)
    : recorder_(recorder) {
  if (recorder_ != nullptr) id_ = recorder_->Open(name, parent, item);
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ != nullptr) recorder_->Close(id_);
}

// --- estimator decorator --------------------------------------------------

class TimedEstimator::Tick {
 public:
  explicit Tick(const TimedEstimator* owner)
      : owner_(owner), start_(Clock::now()) {}
  ~Tick() {
    owner_->calls_.fetch_add(1, std::memory_order_relaxed);
    owner_->nanos_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count(),
        std::memory_order_relaxed);
  }

 private:
  const TimedEstimator* owner_;
  Clock::time_point start_;
};

NodeStats TimedEstimator::LeafStats(const std::string& name,
                                    const remac::MatrixStats& stats) const {
  Tick tick(this);
  return inner_->LeafStats(name, stats);
}

NodeStats TimedEstimator::GeneratorStats(remac::PlanOp op, int64_t rows,
                                         int64_t cols) const {
  Tick tick(this);
  return inner_->GeneratorStats(op, rows, cols);
}

NodeStats TimedEstimator::Multiply(const NodeStats& a,
                                   const NodeStats& b) const {
  Tick tick(this);
  return inner_->Multiply(a, b);
}

NodeStats TimedEstimator::Transpose(const NodeStats& a) const {
  Tick tick(this);
  return inner_->Transpose(a);
}

NodeStats TimedEstimator::Elementwise(remac::PlanOp op, const NodeStats& a,
                                      const NodeStats& b) const {
  Tick tick(this);
  return inner_->Elementwise(op, a, b);
}

NodeStats TimedEstimator::ScalarBroadcast(remac::PlanOp op,
                                          const NodeStats& m) const {
  Tick tick(this);
  return inner_->ScalarBroadcast(op, m);
}

// --- registry -------------------------------------------------------------

int64_t CounterValue(const std::string& name) {
  return remac::MetricsRegistry::Global().GetCounter(name)->Value();
}

double HistogramSum(const std::string& name) {
  return remac::MetricsRegistry::Global().GetHistogram(name)->Sum();
}

// --- output checks --------------------------------------------------------

namespace {

/// Row `r` of `m` as dense cells.
void DenseRow(const Matrix& m, int64_t r, std::vector<double>* row) {
  row->assign(static_cast<size_t>(m.cols()), 0.0);
  if (m.is_dense()) {
    const double* p = m.dense().data() + r * m.cols();
    std::copy(p, p + m.cols(), row->begin());
    return;
  }
  const auto& csr = m.csr();
  for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
    (*row)[static_cast<size_t>(csr.col_idx()[k])] = csr.values()[k];
  }
}

bool CellsMatch(double a, double b, double tolerance, double* rel) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    *rel = 0.0;
    return (std::isnan(a) && std::isnan(b)) || a == b;
  }
  *rel = std::fabs(a - b) / std::max(1.0, std::max(std::fabs(a), std::fabs(b)));
  return *rel <= tolerance;
}

}  // namespace

EnvCheck CompareEnv(const std::map<std::string, RtValue>& got,
                    const std::map<std::string, RtValue>& reference,
                    double tolerance) {
  EnvCheck check;
  auto fail = [&](const std::string& why) {
    if (check.ok) check.detail = why;
    check.ok = false;
  };
  for (const auto& [name, want] : reference) {
    const auto it = got.find(name);
    if (it == got.end()) {
      fail("missing variable '" + name + "'");
      continue;
    }
    const RtValue& have = it->second;
    double rel = 0.0;
    if (want.is_scalar || have.is_scalar) {
      const double a = want.is_scalar ? want.scalar : want.matrix.At(0, 0);
      const double b = have.is_scalar ? have.scalar : have.matrix.At(0, 0);
      if (!CellsMatch(a, b, tolerance, &rel)) fail("scalar '" + name + "'");
      check.max_rel_error = std::max(check.max_rel_error, rel);
      continue;
    }
    if (want.matrix.rows() != have.matrix.rows() ||
        want.matrix.cols() != have.matrix.cols()) {
      fail("shape of '" + name + "'");
      continue;
    }
    std::vector<double> a;
    std::vector<double> b;
    bool var_ok = true;
    for (int64_t r = 0; r < want.matrix.rows(); ++r) {
      DenseRow(want.matrix, r, &a);
      DenseRow(have.matrix, r, &b);
      for (size_t c = 0; c < a.size(); ++c) {
        if (!CellsMatch(a[c], b[c], tolerance, &rel)) var_ok = false;
        check.max_rel_error = std::max(check.max_rel_error, rel);
      }
    }
    if (!var_ok) fail("cells of '" + name + "'");
  }
  return check;
}

bool EnvBitwiseEqual(const std::map<std::string, RtValue>& got,
                     const std::map<std::string, RtValue>& reference) {
  for (const auto& [name, want] : reference) {
    const auto it = got.find(name);
    if (it == got.end()) return false;
    const RtValue& have = it->second;
    if (want.is_scalar != have.is_scalar) return false;
    if (want.is_scalar) {
      if (std::memcmp(&want.scalar, &have.scalar, sizeof(double)) != 0) {
        return false;
      }
      continue;
    }
    if (want.matrix.rows() != have.matrix.rows() ||
        want.matrix.cols() != have.matrix.cols()) {
      return false;
    }
    std::vector<double> a;
    std::vector<double> b;
    for (int64_t r = 0; r < want.matrix.rows(); ++r) {
      DenseRow(want.matrix, r, &a);
      DenseRow(have.matrix, r, &b);
      if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
