#ifndef REMAC_RUNTIME_EXECUTOR_H_
#define REMAC_RUNTIME_EXECUTOR_H_

#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_model.h"
#include "cluster/transmission_ledger.h"
#include "common/status.h"
#include "distributed/distributed_ops.h"
#include "matrix/fused_tape.h"
#include "matrix/matrix.h"
#include "plan/plan_builder.h"

namespace remac {

/// Runtime value: a scalar or a matrix with its placement.
struct RtValue {
  bool is_scalar = false;
  double scalar = 0.0;
  Matrix matrix;
  bool distributed = false;

  static RtValue Scalar(double v);
  static RtValue FromMatrix(Matrix m, bool distributed);

  /// Scalar view; 1x1 matrices coerce.
  Result<double> AsScalar() const;
  /// Matrix view; scalars become 1x1 matrices.
  Matrix AsMatrix() const;
};

/// Engine personality knobs used to emulate the comparator systems
/// (paper Section 6.4).
struct EngineTraits {
  /// pbdR/ScaLAPACK: sparse matrices are handled as dense.
  bool force_dense = false;
  /// pbdR/SciDB: no dynamic local/distributed switch; every matrix
  /// operator runs distributed.
  bool force_distributed = false;
  /// Multiplier on the dfs cost of loading/partitioning input data
  /// (pbdR and SciDB partition inputs sequentially; SciDB additionally
  /// pays a redimension pass).
  double input_partition_factor = 1.0;
};

/// \brief First-load registry shared by executors running concurrently.
///
/// The task-graph path gives every task its own Executor; this set makes
/// "book the input-partition cost once per dataset" hold program-wide
/// instead of per-executor.
struct SharedDatasetSet {
  std::mutex mu;
  std::set<std::string> loaded;

  /// Marks `name` loaded; true only on the first call for that name.
  bool MarkLoaded(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu);
    return loaded.insert(name).second;
  }
};

/// \brief Serving hook for materialized sub-plan results.
///
/// The service's matcache implements this to splice cached intermediates
/// into plan evaluation without rewriting the (shared, immutable) plan
/// trees: before evaluating a node the executor asks Lookup — a non-null
/// result *is* the node's value and the subtree underneath is never
/// walked (no FLOPs, no transmission booked, the runtime equivalent of
/// rewriting the sub-plan into a cache read). After computing a node the
/// executor calls Offer so the store can capture values it asked for.
/// Implementations must be thread-safe: the task-graph path calls both
/// hooks from concurrent per-task executors.
class IntermediateStore {
 public:
  virtual ~IntermediateStore() = default;

  /// The served value for this exact plan node, or null to evaluate it
  /// normally. The pointer must stay valid for the execution's lifetime.
  virtual const RtValue* Lookup(const PlanNode* node) = 0;

  /// Offers a freshly computed node value (called for every evaluated
  /// node; implementations filter by pointer identity).
  virtual void Offer(const PlanNode* node, const RtValue& value) = 0;

  /// True when Lookup/Offer act on `node`. The executor then evaluates
  /// the node through them instead of keeping its value unformed (an
  /// outer-product slot of a fused region).
  virtual bool Tracks(const PlanNode* node) const = 0;
};

/// \brief Executes compiled statements against the simulated cluster.
///
/// Operators are computed for real with the local kernels while their
/// distributed cost (FLOPs and transmission bytes) is booked into the
/// ledger; see DESIGN.md for the substitution argument. Loops marked
/// barrier_commit evaluate every non-temp assignment against the
/// start-of-iteration environment and commit them together, which is how
/// the optimizer's fully-inlined outputs preserve sequential semantics.
class Executor {
 public:
  Executor(const ClusterModel& model, const DataCatalog* catalog,
           TransmissionLedger* ledger, EngineTraits traits = {});

  /// Runs a statement list. Loops run until their condition turns false
  /// or `max_loop_iterations` is reached, whichever is first.
  Status Run(const std::vector<CompiledStmt>& statements,
             int max_loop_iterations = 1000);

  /// Evaluates one plan tree in the current environment.
  Result<RtValue> Eval(const PlanNode& node);

  /// Environment access.
  bool Has(const std::string& name) const { return env_.count(name) > 0; }
  Result<RtValue> Get(const std::string& name) const;
  void Set(const std::string& name, RtValue value);
  const std::map<std::string, RtValue>& env() const { return env_; }

  /// Books the dfs cost of partitioning every catalog dataset referenced
  /// by read() into the cluster (Figure 12's "input partition" phase).
  /// No-op for datasets already loaded.
  void set_count_input_partition(bool on) { count_input_partition_ = on; }

  /// Routes first-load tracking through a registry shared across
  /// executors (the task-graph path; see SharedDatasetSet).
  void set_shared_loaded_datasets(SharedDatasetSet* shared) {
    shared_datasets_ = shared;
  }

  /// Attaches a materialized-intermediate store (see IntermediateStore).
  /// Null (the default) evaluates every node; behaviour is then bitwise
  /// identical to builds without the hook.
  void set_intermediate_store(IntermediateStore* store) {
    intermediates_ = store;
  }

  /// Position in the deterministic rand() stream. The task-graph
  /// executor re-bases each task to the offset the serial executor would
  /// have reached, so rand-using programs stay bitwise reproducible.
  void set_rand_counter(uint64_t value) { rand_counter_ = value; }
  uint64_t rand_counter() const { return rand_counter_; }

  int64_t ops_executed() const { return ops_executed_; }

 private:
  Result<RtValue> EvalImpl(const PlanNode& node);
  /// Applies the engine personality to a produced value (pbdR/SciDB force
  /// dense storage and distributed placement).
  RtValue ApplyTraits(RtValue value) const;
  Result<RtValue> EvalBinary(const PlanNode& node);
  /// EvalBinary after its operands are evaluated.
  Result<RtValue> ApplyBinary(const PlanNode& node, const RtValue& lhs,
                              const RtValue& rhs);
  /// The kMatMul `node` after its unwrapped operands `a` and `b` are
  /// evaluated: the fused transpose-multiply, or EvalBinary's path when
  /// neither side is transposed.
  Result<RtValue> MultiplyOperands(const PlanNode& node,
                                   const MatMulOperands& ops,
                                   const RtValue& a, const RtValue& b);
  /// Evaluates a kFusedMap region: single-pass tape kernel plus per-step
  /// cost booking identical to the unfused operator sequence.
  Result<RtValue> EvalFusedMap(const PlanNode& node);
  /// Evaluates an outer-product input `node` of a fused region. When the
  /// product can stay unformed (dense vector operands, no 2D candidate,
  /// not a matcache node), books exactly what ExecMultiply would have
  /// booked for it, writes the product's exact statistics and placement
  /// to `*info` and returns the leaf (slot unset); otherwise stores the
  /// materialized product, evaluated exactly as Eval would, in
  /// `*materialized` and returns nullopt.
  Result<std::optional<FusedLeaf>> EvalOuterSlot(const PlanNode& node,
                                                 MatInfo* info,
                                                 RtValue* materialized);
  Result<RtValue> EvalGenerator(const PlanNode& node);
  Result<RtValue> ReadDataset(const std::string& name);
  /// If `stmt` re-assigns a matrix variable its plan reads exactly once,
  /// moves the old value into `steal_` so the single kInput reference can
  /// consume it (last use) and fused kernels may reuse its buffer.
  void ArmBufferSteal(const CompiledStmt& stmt);

  ClusterModel model_;
  const DataCatalog* catalog_;
  TransmissionLedger* ledger_;
  EngineTraits traits_;
  std::map<std::string, RtValue> env_;
  std::map<std::string, bool> loaded_datasets_;
  SharedDatasetSet* shared_datasets_ = nullptr;
  IntermediateStore* intermediates_ = nullptr;
  bool count_input_partition_ = false;
  int64_t ops_executed_ = 0;
  uint64_t rand_counter_ = 0;
  /// Armed by Run() for last-use re-assignments; consumed by the kInput
  /// case of EvalImpl (see ArmBufferSteal).
  std::optional<std::pair<std::string, RtValue>> steal_;
};

}  // namespace remac

#endif  // REMAC_RUNTIME_EXECUTOR_H_
