#ifndef REMAC_SCHED_THREAD_POOL_H_
#define REMAC_SCHED_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace remac {

class Counter;
class Gauge;

/// Lightweight pool counters for stats reports (plan service, benches).
/// All monotonically increasing since pool construction; reads are
/// relaxed snapshots.
struct PoolStats {
  int threads = 0;
  int64_t tasks_executed = 0;
  /// Tasks a worker popped from a sibling's deque.
  int64_t steals = 0;
  /// Deepest any single worker deque has been at submission time.
  int64_t peak_queue_depth = 0;
  /// Times a thread blocked on a pool condition variable (worker idle
  /// parks + RunAndWait latch waits). Waits are signaled, not polled, so
  /// this stays small even across long idle stretches — tests assert it.
  int64_t wait_wakeups = 0;
};

/// \brief Persistent work-stealing thread pool.
///
/// Each worker owns a deque: external submitters distribute tasks
/// round-robin across the deques, while a submit from a pool worker goes
/// onto the submitter's own deque (a worker-originated continuation is
/// overwhelmingly likely to be picked up next by that same worker, so
/// routing it anywhere else just forces a steal). Workers pop from the
/// front of their own deque and steal from the back of a sibling's when
/// it runs dry.
///
/// Idle workers park on a per-worker condition variable, not a global
/// one: Submit wakes the owner of the deque that received the task (or,
/// if that owner is busy, the nearest parked sibling, which will steal
/// it). When no worker is parked — the saturated steady state — Submit
/// touches no wake mutex at all. The old design funneled every Submit
/// and every idle sleep through one global sleep_mu_, which became the
/// dominant contention source past two threads.
///
/// The process hosts two long-lived lanes sized from one thread budget
/// (SetGlobalThreads): Global() is the execution lane (task-graph DAG
/// tasks, kernel ParallelFor fan-out) and RequestLane() is the request
/// lane (whole PlanService requests submitted via Session). Splitting
/// them keeps a burst of cheap request tasks from queueing behind one
/// request's DAG fan-out and vice versa; a lane left idle by the
/// workload costs nothing (its workers stay parked).
///
/// Nested blocking is safe at any pool size, including 1: a thread that
/// waits for sub-tasks (RunAndWait) keeps draining queues through
/// TryRunOne instead of sleeping, so the pool cannot deadlock on
/// recursive fan-out (DAG task -> kernel ParallelFor -> pool).
class ThreadPool {
 public:
  /// `threads` <= 0 selects the hardware default (capped at 16).
  /// `lane` selects the metric family this pool's counters mirror into
  /// ("exec" or "request"; nullptr = no lane metrics, e.g. test pools).
  explicit ThreadPool(int threads, const char* lane = nullptr);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }

  /// Enqueues a task for asynchronous execution. Called from one of this
  /// pool's own workers, the task lands on the submitter's deque;
  /// otherwise deques are filled round-robin.
  void Submit(std::function<void()> fn);

  /// Runs one pending task on the calling thread, if any queue holds one.
  /// Returns false when everything was empty. External threads use this
  /// to participate in pool work while they wait.
  bool TryRunOne();

  /// Runs every closure — on the pool workers plus the calling thread —
  /// and returns once all of them completed. Safe to call from inside a
  /// pool task (the caller helps instead of blocking).
  void RunAndWait(std::vector<std::function<void()>> tasks);

  /// Index of the current pool worker thread, or -1 for external threads.
  /// The id is scoped to the pool returned by CurrentPool().
  static int CurrentWorkerId();

  /// The pool whose worker the calling thread is, or nullptr for
  /// external threads. Waiters use this to help drain their own lane.
  static ThreadPool* CurrentPool();

  /// The process-wide execution lane (DAG tasks, kernel fan-out).
  static ThreadPool& Global();

  /// The process-wide request lane (PlanService Session submissions).
  static ThreadPool& RequestLane();

  /// Re-creates both lanes with `threads` workers each (<= 0 restores
  /// the hardware default). Lanes are sized from this one budget: each
  /// lane owns the full budget because at most one lane is CPU-saturated
  /// at a time in practice (parked workers cost nothing), and capping
  /// either lane below the budget reintroduces the head-of-line blocking
  /// the split exists to remove. No-ops for a lane whose size already
  /// matches. Must not be called while pool work is in flight.
  static void SetGlobalThreads(int threads);

  /// Re-sizes only the execution lane (RunConfig::pool_threads on a
  /// per-run basis). The request lane is left alone so a request-lane
  /// worker configuring its run's execution parallelism never joins the
  /// very lane it runs on.
  static void SetExecLaneThreads(int threads);

  /// Total tasks run since construction (observability and tests). A task
  /// is counted as it starts, so it is counted by the time anything it
  /// signals is visible.
  int64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }

  /// Tasks submitted but not yet popped by any thread. A saturation
  /// signal: the plan service's admission control sheds task-graph
  /// fan-out when a lane's backlog runs far beyond its worker count.
  int64_t pending() const {
    return pending_.load(std::memory_order_acquire);
  }

  /// Counter snapshot (tasks executed, steals, peak queue depth).
  PoolStats stats() const;

 private:
  struct Queue {
    std::mutex mu;
    std::deque<std::function<void()>> items;
    /// Parking slot for the owning worker. `parked` is written under
    /// `park_mu` but read lock-free by submitters looking for a worker
    /// to wake.
    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<bool> parked{false};
  };

  void WorkerLoop(int index);
  /// Books one task in the pool and lane counters, then runs and clears it.
  void RunTask(std::function<void()>* task);
  /// Pops from queue `preferred` first (front), then steals from the
  /// others (back). Returns false when every queue was empty.
  bool PopTask(int preferred, std::function<void()>* out);
  /// Wakes the owner of queue `target` if it is parked, else the nearest
  /// parked sibling. No-op (no locks) when nobody is parked.
  void WakeForTask(size_t target);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> next_queue_{0};
  std::atomic<int64_t> pending_{0};
  std::atomic<int64_t> parked_count_{0};
  std::atomic<int64_t> tasks_executed_{0};
  std::atomic<int64_t> steals_{0};
  std::atomic<int64_t> peak_queue_depth_{0};
  std::atomic<int64_t> wait_wakeups_{0};
  /// Per-lane metric mirrors (null for unnamed pools).
  Counter* lane_tasks_ = nullptr;
  Gauge* lane_threads_ = nullptr;
};

}  // namespace remac

#endif  // REMAC_SCHED_THREAD_POOL_H_
