#include "obs/cost_audit.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "cost/physical_model.h"
#include "distributed/distributed_ops.h"
#include "matrix/fused_tape.h"

namespace remac {

namespace {

/// Estimated counterpart of RtValue: statistics plus placement.
struct PredValue {
  bool is_scalar = false;
  NodeStats stats;
  bool distributed = false;

  static PredValue Scalar() {
    PredValue out;
    out.is_scalar = true;
    return out;
  }
  static PredValue FromStats(NodeStats stats, bool distributed) {
    PredValue out;
    out.stats = std::move(stats);
    out.distributed = distributed;
    return out;
  }
};

/// Maps a tape opcode back onto its PlanOp (for the estimator calls).
PlanOp FromFusedOp(FusedOp op) {
  switch (op) {
    case FusedOp::kAdd: return PlanOp::kAdd;
    case FusedOp::kSub: return PlanOp::kSub;
    case FusedOp::kMul: return PlanOp::kMul;
    case FusedOp::kDiv: return PlanOp::kDiv;
    case FusedOp::kMin: return PlanOp::kMin;
    case FusedOp::kMax: return PlanOp::kMax;
    case FusedOp::kExp: return PlanOp::kExp;
    case FusedOp::kLog: return PlanOp::kLog;
  }
  return PlanOp::kAdd;
}

NodeStats PlainStats(double rows, double cols, double sparsity) {
  NodeStats stats;
  stats.rows = rows;
  stats.cols = cols;
  stats.sparsity = std::clamp(sparsity, 0.0, 1.0);
  return stats;
}

/// Mirrors runtime/executor.cc's Eval over statistics instead of
/// matrices, booking each operator's OpCosting into a PredictedCost the
/// same way OpCosting::Book books into the TransmissionLedger. Every
/// booking site below corresponds one-to-one to an executor site; keep
/// them in sync when the executor changes.
class CostWalker {
 public:
  CostWalker(const DataCatalog& catalog, const SparsityEstimator& estimator,
             const ClusterModel& model, const EngineTraits& traits)
      : catalog_(catalog),
        estimator_(estimator),
        model_(model),
        traits_(traits) {}

  Status Run(const std::vector<CompiledStmt>& statements,
             int max_loop_iterations) {
    for (const auto& stmt : statements) {
      if (stmt.kind == CompiledStmt::Kind::kAssign) {
        REMAC_ASSIGN_OR_RETURN(PredValue value, Eval(*stmt.plan));
        env_.insert_or_assign(stmt.target, std::move(value));
        continue;
      }
      int64_t limit = max_loop_iterations;
      if (stmt.static_trip_count >= 0) {
        limit = std::min<int64_t>(limit, stmt.static_trip_count);
      }
      if (!stmt.loop_var.empty()) {
        env_.insert_or_assign(stmt.loop_var, PredValue::Scalar());
      }
      for (int64_t iter = 0; iter < limit; ++iter) {
        if (stmt.condition != nullptr) {
          // Cost of evaluating the condition is booked each iteration;
          // its boolean outcome is unknowable here, so the audit assumes
          // the loop runs to `limit` (see header).
          REMAC_RETURN_NOT_OK(Eval(*stmt.condition).status());
        }
        if (stmt.barrier_commit) {
          std::vector<std::pair<std::string, PredValue>> staged;
          for (const auto& body_stmt : stmt.body) {
            if (body_stmt.kind != CompiledStmt::Kind::kAssign) {
              return Status::Unsupported(
                  "nested loop in barrier-commit body");
            }
            REMAC_ASSIGN_OR_RETURN(PredValue value, Eval(*body_stmt.plan));
            if (body_stmt.is_temp) {
              env_.insert_or_assign(body_stmt.target, std::move(value));
            } else {
              staged.emplace_back(body_stmt.target, std::move(value));
            }
          }
          for (auto& [name, value] : staged) {
            env_.insert_or_assign(name, std::move(value));
          }
        } else {
          REMAC_RETURN_NOT_OK(Run(stmt.body, max_loop_iterations));
        }
      }
    }
    return Status::OK();
  }

  const PredictedCost& cost() const { return cost_; }

 private:
  /// Mirror of OpCosting::Book (including the SUMMA legs' mapping onto
  /// the broadcast/shuffle primitives).
  void Book(const OpCosting& c) {
    if (c.method == MultiplyMethod::kLocalOp && c.broadcast_bytes == 0.0 &&
        c.shuffle_bytes == 0.0 && c.collection_bytes == 0.0 &&
        c.row_broadcast_bytes == 0.0 && c.col_broadcast_bytes == 0.0 &&
        c.reduce_bytes == 0.0) {
      cost_.local_flops += c.flops;
    } else {
      cost_.distributed_flops += c.flops;
    }
    At(TransmissionPrimitive::kBroadcast) +=
        c.broadcast_bytes + c.row_broadcast_bytes + c.col_broadcast_bytes;
    At(TransmissionPrimitive::kShuffle) += c.shuffle_bytes + c.reduce_bytes;
    At(TransmissionPrimitive::kCollection) += c.collection_bytes;
    At(TransmissionPrimitive::kDfs) += c.dfs_bytes;
  }

  double& At(TransmissionPrimitive pr) {
    return cost_.bytes[static_cast<size_t>(pr)];
  }

  static MatInfo InfoOf(const NodeStats& stats, bool distributed) {
    MatInfo info;
    info.rows = stats.rows;
    info.cols = stats.cols;
    info.sparsity = stats.sparsity;
    info.distributed = distributed;
    return info;
  }
  static MatInfo InfoOf(const PredValue& v) {
    return InfoOf(v.stats, v.distributed);
  }

  /// Mirror of Executor::ApplyTraits (force_dense does not change the
  /// nnz-based sparsity the costing reads, so only placement matters).
  PredValue ApplyTraits(PredValue value) const {
    if (value.is_scalar) return value;
    if (traits_.force_distributed &&
        value.stats.rows * value.stats.cols > 1.0) {
      value.distributed = true;
    }
    return value;
  }

  Result<PredValue> Eval(const PlanNode& node) {
    REMAC_ASSIGN_OR_RETURN(PredValue value, EvalImpl(node));
    return ApplyTraits(std::move(value));
  }

  Result<PredValue> EvalImpl(const PlanNode& node) {
    switch (node.op) {
      case PlanOp::kInput: {
        auto it = env_.find(node.name);
        if (it == env_.end()) {
          return Status::NotFound("variable '" + node.name +
                                  "' is not defined");
        }
        return it->second;
      }
      case PlanOp::kConst:
        return PredValue::Scalar();
      case PlanOp::kReadData: {
        REMAC_ASSIGN_OR_RETURN(const MatrixStats stats,
                               catalog_.Stats(node.name));
        // Input datasets live distributed (executor ReadDataset); the
        // input-partition dfs cost lands in a separate ledger accumulator
        // outside the audited primitives.
        return PredValue::FromStats(estimator_.LeafStats(node.name, stats),
                                    /*distributed=*/true);
      }
      case PlanOp::kEye:
      case PlanOp::kZeros:
      case PlanOp::kOnes:
      case PlanOp::kRand: {
        NodeStats stats = estimator_.GeneratorStats(node.op, node.shape.rows,
                                                    node.shape.cols);
        bool distributed = false;
        if (node.op == PlanOp::kRand) {
          // rand() produces a fully dense matrix (|gaussian| + 0.1).
          distributed = IsDistributedSize(
              MatrixBytes(stats.rows, stats.cols, 1.0), model_);
        }
        return PredValue::FromStats(std::move(stats), distributed);
      }
      case PlanOp::kTranspose: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        if (child.is_scalar) return child;
        const OpCosting costing = CostTranspose(InfoOf(child), model_);
        Book(costing);
        return PredValue::FromStats(estimator_.Transpose(child.stats),
                                    costing.result_distributed);
      }
      case PlanOp::kMatMul: {
        // Transpose fusion, exactly as the executor unwraps it.
        const MatMulOperands ops = UnwrapMatMul(node);
        const bool lt = ops.lhs_transposed;
        const bool rt = ops.rhs_transposed;
        if (!lt && !rt) return EvalBinary(node);
        REMAC_ASSIGN_OR_RETURN(const PredValue a, Eval(*ops.lhs));
        REMAC_ASSIGN_OR_RETURN(const PredValue b, Eval(*ops.rhs));
        if (a.is_scalar || b.is_scalar) {
          // Degenerate fallback: the executor re-evaluates the original
          // children here, double-booking the subtrees; mirror that.
          return EvalBinary(node);
        }
        const NodeStats ea =
            lt ? estimator_.Transpose(a.stats) : a.stats;
        const NodeStats eb =
            rt ? estimator_.Transpose(b.stats) : b.stats;
        NodeStats out = estimator_.Multiply(ea, eb);
        const OpCosting costing = SelectMultiplyCosting(
            InfoOf(ea, a.distributed), InfoOf(eb, b.distributed),
            out.sparsity, model_);
        Book(costing);
        return PredValue::FromStats(std::move(out),
                                    costing.result_distributed);
      }
      case PlanOp::kAdd:
      case PlanOp::kSub:
      case PlanOp::kMul:
      case PlanOp::kDiv:
      case PlanOp::kMin:
      case PlanOp::kMax:
      case PlanOp::kLess:
      case PlanOp::kGreater:
      case PlanOp::kLessEq:
      case PlanOp::kGreaterEq:
      case PlanOp::kEqual:
      case PlanOp::kNotEqual:
        return EvalBinary(node);
      case PlanOp::kSum: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        if (child.is_scalar) return child;
        cost_.distributed_flops += child.stats.Nnz();
        return PredValue::Scalar();
      }
      case PlanOp::kTrace: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        if (child.is_scalar) return child;
        cost_.distributed_flops += child.stats.rows;
        return PredValue::Scalar();
      }
      case PlanOp::kExp:
      case PlanOp::kLog: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        if (child.is_scalar) return child;
        const OpCosting costing = CostScalarOp(InfoOf(child), model_);
        Book(costing);
        // exp densifies (exp(0) = 1); log touches stored non-zeros only.
        const double sp =
            node.op == PlanOp::kExp ? 1.0 : child.stats.sparsity;
        return PredValue::FromStats(
            PlainStats(child.stats.rows, child.stats.cols, sp),
            costing.result_distributed);
      }
      case PlanOp::kRowSums:
      case PlanOp::kColSums: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        const NodeStats& m = child.stats;  // 1x1 for scalars, as AsMatrix
        cost_.distributed_flops += m.Nnz();
        const bool rows = node.op == PlanOp::kRowSums;
        NodeStats out = PlainStats(rows ? m.rows : 1.0, rows ? 1.0 : m.cols,
                                   1.0);  // dense result vector
        const bool distributed = IsDistributedSize(
            MatrixBytes(out.rows, out.cols, out.sparsity), model_);
        return PredValue::FromStats(std::move(out), distributed);
      }
      case PlanOp::kDiag: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        const NodeStats& m = child.stats;
        // Books no simulated cost (mirrors the executor).
        if (m.cols == 1.0) {
          // Vector -> diagonal matrix: keeps the vector's nnz.
          const double sp = m.rows > 0 ? m.sparsity / m.rows : 0.0;
          return PredValue::FromStats(PlainStats(m.rows, m.rows, sp), false);
        }
        // Square matrix -> diagonal vector; assume uniform sparsity.
        return PredValue::FromStats(PlainStats(m.rows, 1.0, m.sparsity),
                                    false);
      }
      case PlanOp::kNorm: {
        REMAC_ASSIGN_OR_RETURN(const PredValue child,
                               Eval(*node.children[0]));
        if (child.is_scalar) return child;
        cost_.distributed_flops += 2.0 * child.stats.Nnz();
        return PredValue::Scalar();
      }
      case PlanOp::kSqrt:
      case PlanOp::kAbs:
      case PlanOp::kNcol:
      case PlanOp::kNrow: {
        REMAC_RETURN_NOT_OK(Eval(*node.children[0]).status());
        return PredValue::Scalar();
      }
      case PlanOp::kFusedMap:
        return EvalFusedMap(node);
      case PlanOp::kBlockRef:
        return Status::Internal("kBlockRef reached the cost audit");
    }
    return Status::Internal("unhandled op in cost audit");
  }

  /// Mirror of Executor::EvalFusedMap: replays the tape over statistics,
  /// booking per step exactly what the standalone operator's audit site
  /// books (CostScalarOp for unary maps and scalar broadcasts,
  /// CostElementwise with the estimated result sparsity otherwise). An
  /// outer-product input the executor keeps unformed is still a kMatMul
  /// child, so evaluating the children replays it as the multiply the
  /// executor books for it.
  Result<PredValue> EvalFusedMap(const PlanNode& node) {
    if (node.fused == nullptr) {
      return Status::Internal("kFusedMap node without a tape");
    }
    const FusedTape& tape = *node.fused;
    if (node.children.size() != static_cast<size_t>(tape.num_inputs)) {
      return Status::Internal("fused region input arity mismatch");
    }
    std::vector<PredValue> slots(static_cast<size_t>(tape.num_inputs));
    for (int32_t i = 0; i < tape.num_inputs; ++i) {
      REMAC_ASSIGN_OR_RETURN(slots[static_cast<size_t>(i)],
                             Eval(*node.children[i]));
    }
    auto scalar_slot = [&](int32_t slot) {
      return slot >= 0 && slot < tape.num_inputs &&
             tape.input_scalar[static_cast<size_t>(slot)] != 0;
    };
    PredValue step_value;
    std::vector<PredValue> step_values(tape.steps.size());
    for (size_t j = 0; j < tape.steps.size(); ++j) {
      const FusedStep& step = tape.steps[j];
      auto operand = [&](int32_t slot) -> const PredValue& {
        return slot < tape.num_inputs
                   ? slots[static_cast<size_t>(slot)]
                   : step_values[static_cast<size_t>(slot -
                                                     tape.num_inputs)];
      };
      const PlanOp op = FromFusedOp(step.op);
      PredValue value;
      if (step.rhs < 0) {
        // Unary map: exp densifies, log keeps the sparsity pattern.
        const PredValue& a = operand(step.lhs);
        const OpCosting costing = CostScalarOp(InfoOf(a), model_);
        Book(costing);
        const double sp =
            step.op == FusedOp::kExp ? 1.0 : a.stats.sparsity;
        value = PredValue::FromStats(
            PlainStats(a.stats.rows, a.stats.cols, sp),
            costing.result_distributed);
      } else if (scalar_slot(step.lhs) || scalar_slot(step.rhs)) {
        const PredValue& mat =
            scalar_slot(step.lhs) ? operand(step.rhs) : operand(step.lhs);
        const OpCosting costing = CostScalarOp(InfoOf(mat), model_);
        Book(costing);
        value = PredValue::FromStats(estimator_.ScalarBroadcast(op, mat.stats),
                                     costing.result_distributed);
      } else {
        const PredValue& a = operand(step.lhs);
        const PredValue& b = operand(step.rhs);
        NodeStats out = estimator_.Elementwise(op, a.stats, b.stats);
        const OpCosting costing =
            CostElementwise(InfoOf(a), InfoOf(b), out.sparsity, model_);
        Book(costing);
        value = PredValue::FromStats(std::move(out),
                                     costing.result_distributed);
      }
      step_values[j] = ApplyTraits(std::move(value));
      step_value = step_values[j];
    }
    return step_value;
  }

  Result<PredValue> EvalBinary(const PlanNode& node) {
    REMAC_ASSIGN_OR_RETURN(const PredValue a, Eval(*node.children[0]));
    REMAC_ASSIGN_OR_RETURN(const PredValue b, Eval(*node.children[1]));
    const bool l_scalar =
        a.is_scalar || (a.stats.rows == 1.0 && a.stats.cols == 1.0);
    const bool r_scalar =
        b.is_scalar || (b.stats.rows == 1.0 && b.stats.cols == 1.0);
    if (l_scalar && r_scalar) return PredValue::Scalar();
    if (IsComparisonOp(node.op)) {
      return Status::InvalidArgument("comparison of non-scalar values");
    }
    // Scalar-matrix broadcast: every such path books one CostScalarOp
    // over the matrix side.
    if (l_scalar != r_scalar && node.op != PlanOp::kMatMul) {
      const PredValue& mat = l_scalar ? b : a;
      const OpCosting costing = CostScalarOp(InfoOf(mat), model_);
      Book(costing);
      return PredValue::FromStats(
          estimator_.ScalarBroadcast(node.op, mat.stats),
          costing.result_distributed);
    }
    if (node.op == PlanOp::kMatMul) {
      if (l_scalar || r_scalar) {
        // 1x1-matrix operands degrade to scalar scaling.
        const PredValue& mat = l_scalar ? b : a;
        const OpCosting costing = CostScalarOp(InfoOf(mat), model_);
        Book(costing);
        return PredValue::FromStats(
            estimator_.ScalarBroadcast(PlanOp::kMul, mat.stats),
            costing.result_distributed);
      }
      NodeStats out = estimator_.Multiply(a.stats, b.stats);
      const OpCosting costing =
          SelectMultiplyCosting(InfoOf(a), InfoOf(b), out.sparsity, model_);
      Book(costing);
      return PredValue::FromStats(std::move(out),
                                  costing.result_distributed);
    }
    NodeStats out = estimator_.Elementwise(node.op, a.stats, b.stats);
    const OpCosting costing =
        CostElementwise(InfoOf(a), InfoOf(b), out.sparsity, model_);
    Book(costing);
    return PredValue::FromStats(std::move(out), costing.result_distributed);
  }

  const DataCatalog& catalog_;
  const SparsityEstimator& estimator_;
  const ClusterModel& model_;
  const EngineTraits& traits_;
  std::map<std::string, PredValue> env_;
  PredictedCost cost_;
};

}  // namespace

Result<PredictedCost> PredictProgramCost(const CompiledProgram& program,
                                         const DataCatalog& catalog,
                                         const SparsityEstimator& estimator,
                                         const ClusterModel& model,
                                         const EngineTraits& traits,
                                         int loop_iterations) {
  CostWalker walker(catalog, estimator, model, traits);
  REMAC_RETURN_NOT_OK(walker.Run(program.statements, loop_iterations));
  return walker.cost();
}

double PrimitiveAudit::RelativeError() const {
  const double denom = std::fabs(actual);
  if (denom < 1e-9) return std::fabs(predicted) < 1e-9 ? 0.0 : 1.0;
  return std::fabs(predicted - actual) / denom;
}

std::string CostAuditRecord::ToString() const {
  if (!valid) {
    return "cost-model accuracy: unavailable (" + error + ")\n";
  }
  std::string out = "cost-model accuracy (predicted vs actual):\n";
  const auto line = [](const char* label, const PrimitiveAudit& p) {
    return StringFormat("  %-12s predicted %-12.4g actual %-12.4g "
                        "rel-err %.2f%%\n",
                        label, p.predicted, p.actual,
                        p.RelativeError() * 100.0);
  };
  out += line("flop", flops);
  for (size_t i = 0; i < transmission.size(); ++i) {
    out += line(
        TransmissionPrimitiveName(static_cast<TransmissionPrimitive>(i)),
        transmission[i]);
  }
  return out;
}

CostAuditRecord MakeCostAudit(
    const PredictedCost& predicted, double actual_flops,
    const std::array<double, kNumTransmissionPrimitives>& actual_bytes) {
  CostAuditRecord audit;
  audit.valid = true;
  audit.flops.predicted = predicted.TotalFlops();
  audit.flops.actual = actual_flops;
  for (size_t i = 0; i < actual_bytes.size(); ++i) {
    audit.transmission[i].predicted = predicted.bytes[i];
    audit.transmission[i].actual = actual_bytes[i];
  }
  return audit;
}

void PublishCostAudit(const CostAuditRecord& audit,
                      MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->GetCounter("remac.audit.programs")->Add();
  if (!audit.valid) {
    registry->GetCounter("remac.audit.failures")->Add();
    return;
  }
  static const std::vector<double> kErrorBounds = {0.001, 0.01, 0.05, 0.1,
                                                   0.25, 0.5,  1.0,  2.0};
  const auto publish = [&](const std::string& key, const PrimitiveAudit& p) {
    registry->GetGauge("remac.audit." + key + ".predicted")->Add(p.predicted);
    registry->GetGauge("remac.audit." + key + ".actual")->Add(p.actual);
    registry->GetHistogram("remac.audit." + key + ".rel_error", kErrorBounds)
        ->Observe(p.RelativeError());
  };
  publish("flops", audit.flops);
  for (size_t i = 0; i < audit.transmission.size(); ++i) {
    publish(TransmissionPrimitiveName(static_cast<TransmissionPrimitive>(i)),
            audit.transmission[i]);
  }
}

}  // namespace remac
