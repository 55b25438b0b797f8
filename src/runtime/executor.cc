#include "runtime/executor.h"

#include <cmath>

#include "common/rng.h"
#include "common/string_util.h"
#include "cost/physical_model.h"
#include "matrix/fused_tape.h"
#include "matrix/kernels.h"
#include "obs/span.h"

namespace remac {

namespace {

/// Registry handles resolved once; every Executor instance (serial and
/// per-task) bumps the same process-wide counters.
struct ExecMetrics {
  Counter* ops =
      MetricsRegistry::Global().GetCounter("remac.executor.ops");
  Histogram* statement_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.statement_seconds");
  Histogram* multiply_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.multiply_seconds");
  Histogram* elementwise_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.elementwise_seconds");
  Histogram* transpose_seconds = MetricsRegistry::Global().GetHistogram(
      "remac.executor.transpose_seconds");
  /// Bytes of fused-region intermediates that were never materialized
  /// (one MatrixBytes-worth per interior tape step).
  Counter* fusion_bytes_avoided =
      MetricsRegistry::Global().GetCounter("remac.fusion.bytes_avoided");
  /// Fused regions whose output was computed in place inside a dying
  /// input's dense buffer.
  Counter* fusion_in_place =
      MetricsRegistry::Global().GetCounter("remac.fusion.in_place_hits");
};

ExecMetrics& Metrics() {
  static ExecMetrics metrics;
  return metrics;
}

/// Number of kInput references to `name` in the tree.
int64_t CountInputRefs(const PlanNode& node, const std::string& name) {
  int64_t count =
      node.op == PlanOp::kInput && node.name == name ? 1 : 0;
  for (const auto& child : node.children) {
    count += CountInputRefs(*child, name);
  }
  return count;
}

/// True when a fused-region input is an outer product: a kMatMul of an
/// m x 1 by a 1 x n operand with m, n >= 2 (child shapes are the
/// effective operand shapes, so a t(v) child is already 1 x n; 1 x 1
/// operands, which multiply as scalar scaling, stay out).
bool IsOuterProduct(const PlanNode& node) {
  return node.op == PlanOp::kMatMul && node.children.size() == 2 &&
         node.shape.rows >= 2 && node.shape.cols >= 2 &&
         node.children[0]->shape.cols == 1 &&
         node.children[1]->shape.rows == 1;
}

}  // namespace

RtValue RtValue::Scalar(double v) {
  RtValue out;
  out.is_scalar = true;
  out.scalar = v;
  return out;
}

RtValue RtValue::FromMatrix(Matrix m, bool distributed) {
  RtValue out;
  out.matrix = std::move(m);
  out.distributed = distributed;
  return out;
}

Result<double> RtValue::AsScalar() const {
  if (is_scalar) return scalar;
  if (matrix.rows() == 1 && matrix.cols() == 1) return matrix.At(0, 0);
  return Status::InvalidArgument(StringFormat(
      "cannot use a %lld x %lld matrix as a scalar",
      static_cast<long long>(matrix.rows()),
      static_cast<long long>(matrix.cols())));
}

Matrix RtValue::AsMatrix() const {
  if (!is_scalar) return matrix;
  DenseMatrix m(1, 1);
  m.At(0, 0) = scalar;
  return Matrix::WrapDense(std::move(m));
}

Executor::Executor(const ClusterModel& model, const DataCatalog* catalog,
                   TransmissionLedger* ledger, EngineTraits traits)
    : model_(model), catalog_(catalog), ledger_(ledger), traits_(traits) {}

Result<RtValue> Executor::Get(const std::string& name) const {
  auto it = env_.find(name);
  if (it == env_.end()) {
    return Status::NotFound("variable '" + name + "' is not defined");
  }
  return it->second;
}

void Executor::Set(const std::string& name, RtValue value) {
  env_.insert_or_assign(name, std::move(value));
}

Status Executor::Run(const std::vector<CompiledStmt>& statements,
                     int max_loop_iterations) {
  for (const auto& stmt : statements) {
    if (stmt.kind == CompiledStmt::Kind::kAssign) {
      StageSpan span(Metrics().statement_seconds, nullptr, "statement");
      // Last-use buffer handoff: when the assignment target's previous
      // value is read exactly once by the new plan (X = X + ... style
      // updates), move it out of the environment so a fused region can
      // steal its dense buffer and run in place. Safe only here — a
      // barrier-commit body must keep start-of-iteration values readable
      // until the joint commit, and the task-graph path never calls Run.
      ArmBufferSteal(stmt);
      auto value = Eval(*stmt.plan);
      steal_.reset();  // unconsumed when a cache hit covered the input
      if (!value.ok()) return value.status();
      Set(stmt.target, std::move(value).value());
      continue;
    }
    // Loop.
    int64_t limit = max_loop_iterations;
    if (stmt.static_trip_count >= 0) {
      limit = std::min<int64_t>(limit, stmt.static_trip_count);
    }
    if (!stmt.loop_var.empty()) {
      Set(stmt.loop_var, RtValue::Scalar(stmt.loop_begin));
    }
    for (int64_t iter = 0; iter < limit; ++iter) {
      if (stmt.condition != nullptr) {
        REMAC_ASSIGN_OR_RETURN(const RtValue cond, Eval(*stmt.condition));
        REMAC_ASSIGN_OR_RETURN(const double flag, cond.AsScalar());
        if (flag == 0.0) break;
      }
      if (stmt.barrier_commit) {
        // Temps commit immediately; outputs are staged and committed
        // together, so every output reads start-of-iteration state.
        std::vector<std::pair<std::string, RtValue>> staged;
        for (const auto& body_stmt : stmt.body) {
          if (body_stmt.kind != CompiledStmt::Kind::kAssign) {
            return Status::Unsupported("nested loop in barrier-commit body");
          }
          REMAC_ASSIGN_OR_RETURN(RtValue value, Eval(*body_stmt.plan));
          if (body_stmt.is_temp) {
            Set(body_stmt.target, std::move(value));
          } else {
            staged.emplace_back(body_stmt.target, std::move(value));
          }
        }
        for (auto& [name, value] : staged) Set(name, std::move(value));
      } else {
        REMAC_RETURN_NOT_OK(Run(stmt.body, max_loop_iterations));
      }
      if (!stmt.loop_var.empty()) {
        Set(stmt.loop_var,
            RtValue::Scalar(stmt.loop_begin + static_cast<double>(iter + 1)));
      }
    }
  }
  return Status::OK();
}

void Executor::ArmBufferSteal(const CompiledStmt& stmt) {
  steal_.reset();
  auto it = env_.find(stmt.target);
  if (it == env_.end() || it->second.is_scalar) return;
  if (CountInputRefs(*stmt.plan, stmt.target) != 1) return;
  steal_.emplace(stmt.target, std::move(it->second));
  it->second = RtValue{};  // benign placeholder until the re-assignment
}

Result<RtValue> Executor::ReadDataset(const std::string& name) {
  if (catalog_ == nullptr) {
    return Status::Internal("executor has no catalog");
  }
  REMAC_ASSIGN_OR_RETURN(Matrix value, catalog_->Value(name));
  if (traits_.force_dense && !value.is_dense()) {
    value = Matrix::WrapDense(value.ToDense());
  }
  const bool first_load = shared_datasets_ != nullptr
                              ? shared_datasets_->MarkLoaded(name)
                              : !loaded_datasets_[name];
  if (first_load) {
    loaded_datasets_[name] = true;
    if (count_input_partition_ && ledger_ != nullptr) {
      ledger_->AddInputPartition(static_cast<double>(value.SizeInBytes()) *
                                 traits_.input_partition_factor);
    }
  }
  // Input datasets live distributed: they are the cluster-scale payloads
  // (the paper's 30-40GB Criteo/Reddit matrices).
  return RtValue::FromMatrix(std::move(value), /*distributed=*/true);
}

Result<RtValue> Executor::EvalGenerator(const PlanNode& node) {
  const int64_t rows = node.shape.rows;
  const int64_t cols = node.shape.cols;
  switch (node.op) {
    case PlanOp::kEye:
      return RtValue::FromMatrix(Matrix::Identity(rows), false);
    case PlanOp::kZeros:
      return RtValue::FromMatrix(Matrix::Zeros(rows, cols), false);
    case PlanOp::kOnes: {
      DenseMatrix m(rows, cols);
      for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = 1.0;
      return RtValue::FromMatrix(Matrix::WrapDense(std::move(m)), false);
    }
    case PlanOp::kRand: {
      Rng rng(0x5eedULL + (rand_counter_++));
      DenseMatrix m(rows, cols);
      for (int64_t i = 0; i < m.size(); ++i) {
        m.data()[i] = std::fabs(rng.NextGaussian()) + 0.1;
      }
      Matrix value = Matrix::WrapDense(std::move(m));
      const bool dist = IsDistributedSize(
          static_cast<double>(value.SizeInBytes()), model_);
      return RtValue::FromMatrix(std::move(value), dist);
    }
    default:
      return Status::Internal("not a generator");
  }
}

Result<RtValue> Executor::EvalBinary(const PlanNode& node) {
  REMAC_ASSIGN_OR_RETURN(const RtValue lhs, Eval(*node.children[0]));
  REMAC_ASSIGN_OR_RETURN(const RtValue rhs, Eval(*node.children[1]));
  return ApplyBinary(node, lhs, rhs);
}

Result<RtValue> Executor::ApplyBinary(const PlanNode& node,
                                      const RtValue& lhs,
                                      const RtValue& rhs) {
  const bool l_scalar =
      lhs.is_scalar || (lhs.matrix.rows() == 1 && lhs.matrix.cols() == 1);
  const bool r_scalar =
      rhs.is_scalar || (rhs.matrix.rows() == 1 && rhs.matrix.cols() == 1);
  ++ops_executed_;
  Metrics().ops->Add();
  // Scalar-scalar.
  if (l_scalar && r_scalar) {
    REMAC_ASSIGN_OR_RETURN(const double a, lhs.AsScalar());
    REMAC_ASSIGN_OR_RETURN(const double b, rhs.AsScalar());
    switch (node.op) {
      case PlanOp::kAdd: return RtValue::Scalar(a + b);
      case PlanOp::kSub: return RtValue::Scalar(a - b);
      case PlanOp::kMul: return RtValue::Scalar(a * b);
      case PlanOp::kDiv: return RtValue::Scalar(b == 0.0 ? 0.0 : a / b);
      case PlanOp::kMin:
        return RtValue::Scalar(FusedApply(FusedOp::kMin, a, b));
      case PlanOp::kMax:
        return RtValue::Scalar(FusedApply(FusedOp::kMax, a, b));
      case PlanOp::kLess: return RtValue::Scalar(a < b ? 1.0 : 0.0);
      case PlanOp::kGreater: return RtValue::Scalar(a > b ? 1.0 : 0.0);
      case PlanOp::kLessEq: return RtValue::Scalar(a <= b ? 1.0 : 0.0);
      case PlanOp::kGreaterEq: return RtValue::Scalar(a >= b ? 1.0 : 0.0);
      case PlanOp::kEqual: return RtValue::Scalar(a == b ? 1.0 : 0.0);
      case PlanOp::kNotEqual: return RtValue::Scalar(a != b ? 1.0 : 0.0);
      case PlanOp::kMatMul: return RtValue::Scalar(a * b);
      default:
        return Status::Internal("bad scalar binary op");
    }
  }
  if (IsComparisonOp(node.op)) {
    return Status::InvalidArgument("comparison of non-scalar values");
  }
  // Scalar-matrix broadcast.
  if (l_scalar != r_scalar && node.op != PlanOp::kMatMul) {
    const RtValue& mat = l_scalar ? rhs : lhs;
    REMAC_ASSIGN_OR_RETURN(const double s,
                           (l_scalar ? lhs : rhs).AsScalar());
    switch (node.op) {
      case PlanOp::kMul: {
        DistValue out = ExecScalarMultiply(mat.matrix, mat.distributed, s,
                                           model_, ledger_);
        return RtValue::FromMatrix(std::move(out.value), out.distributed);
      }
      case PlanOp::kDiv: {
        if (l_scalar) {
          // scalar ./ matrix: element-wise reciprocal, scaled.
          DenseMatrix d = mat.matrix.ToDense();
          for (int64_t i = 0; i < d.size(); ++i) {
            d.data()[i] = d.data()[i] == 0.0 ? 0.0 : s / d.data()[i];
          }
          const OpCosting costing =
              CostScalarOp(InfoOf(mat.matrix, mat.distributed), model_);
          costing.Book(ledger_);
          return RtValue::FromMatrix(Matrix::FromDense(std::move(d)),
                                     costing.result_distributed);
        }
        DistValue out = ExecScalarMultiply(
            mat.matrix, mat.distributed, s == 0.0 ? 0.0 : 1.0 / s, model_,
            ledger_);
        return RtValue::FromMatrix(std::move(out.value), out.distributed);
      }
      case PlanOp::kAdd:
      case PlanOp::kSub:
      case PlanOp::kMin:
      case PlanOp::kMax: {
        DenseMatrix d = mat.matrix.ToDense();
        for (int64_t i = 0; i < d.size(); ++i) {
          if (node.op == PlanOp::kAdd) {
            d.data()[i] += s;
          } else if (node.op == PlanOp::kSub) {
            d.data()[i] = l_scalar ? s - d.data()[i] : d.data()[i] - s;
          } else {
            // min/max broadcast; operand order preserved (ties and NaNs
            // resolve to the left operand, see FusedApply).
            const FusedOp fop =
                node.op == PlanOp::kMin ? FusedOp::kMin : FusedOp::kMax;
            d.data()[i] = l_scalar ? FusedApply(fop, s, d.data()[i])
                                   : FusedApply(fop, d.data()[i], s);
          }
        }
        const OpCosting costing =
            CostScalarOp(InfoOf(mat.matrix, mat.distributed), model_);
        costing.Book(ledger_);
        return RtValue::FromMatrix(Matrix::FromDense(std::move(d)),
                                   costing.result_distributed);
      }
      default:
        return Status::Internal("bad scalar-matrix op");
    }
  }
  // Matrix multiplication with transpose fusion: t(X) %*% Y and
  // X %*% t(Y) do not materialize the distributed transpose (SystemDS's
  // fused transpose-multiply operators).
  if (node.op == PlanOp::kMatMul) {
    // 1x1-matrix operands degrade to scalar scaling.
    if (l_scalar || r_scalar) {
      REMAC_ASSIGN_OR_RETURN(const double s,
                             (l_scalar ? lhs : rhs).AsScalar());
      const RtValue& mat = l_scalar ? rhs : lhs;
      DistValue out = ExecScalarMultiply(mat.matrix, mat.distributed, s,
                                         model_, ledger_);
      return RtValue::FromMatrix(std::move(out.value), out.distributed);
    }
    StageSpan span(Metrics().multiply_seconds, nullptr, "multiply");
    REMAC_ASSIGN_OR_RETURN(
        DistValue out,
        ExecMultiply(lhs.matrix, lhs.distributed, /*a_transposed=*/false,
                     rhs.matrix, rhs.distributed, /*b_transposed=*/false,
                     model_, ledger_));
    return RtValue::FromMatrix(std::move(out.value), out.distributed);
  }
  // Element-wise matrix op.
  BinaryOpKind kind;
  switch (node.op) {
    case PlanOp::kAdd: kind = BinaryOpKind::kAdd; break;
    case PlanOp::kSub: kind = BinaryOpKind::kSub; break;
    case PlanOp::kMul: kind = BinaryOpKind::kElemMul; break;
    case PlanOp::kDiv: kind = BinaryOpKind::kElemDiv; break;
    case PlanOp::kMin: kind = BinaryOpKind::kMin; break;
    case PlanOp::kMax: kind = BinaryOpKind::kMax; break;
    default:
      return Status::Internal("bad elementwise op");
  }
  StageSpan span(Metrics().elementwise_seconds, nullptr, "elementwise");
  REMAC_ASSIGN_OR_RETURN(
      DistValue out,
      ExecElementwise(kind, lhs.matrix, lhs.distributed, rhs.matrix,
                      rhs.distributed, model_, ledger_));
  return RtValue::FromMatrix(std::move(out.value), out.distributed);
}

Result<RtValue> Executor::MultiplyOperands(const PlanNode& node,
                                           const MatMulOperands& ops,
                                           const RtValue& a,
                                           const RtValue& b) {
  if (!ops.lhs_transposed && !ops.rhs_transposed) {
    return ApplyBinary(node, a, b);
  }
  if (a.is_scalar || b.is_scalar) {
    // Degenerate; fall back to materialized transpose semantics.
    return EvalBinary(node);
  }
  ++ops_executed_;
  Metrics().ops->Add();
  StageSpan span(Metrics().multiply_seconds, nullptr, "multiply");
  REMAC_ASSIGN_OR_RETURN(
      DistValue out,
      ExecMultiply(a.matrix, a.distributed, ops.lhs_transposed, b.matrix,
                   b.distributed, ops.rhs_transposed, model_, ledger_));
  return RtValue::FromMatrix(std::move(out.value), out.distributed);
}

RtValue Executor::ApplyTraits(RtValue value) const {
  if (value.is_scalar) return value;
  if (traits_.force_dense && !value.matrix.is_dense()) {
    value.matrix = Matrix::WrapDense(value.matrix.ToDense());
  }
  if (traits_.force_distributed &&
      value.matrix.rows() * value.matrix.cols() > 1) {
    value.distributed = true;
  }
  return value;
}

Result<RtValue> Executor::Eval(const PlanNode& node) {
  if (intermediates_ != nullptr) {
    if (const RtValue* served = intermediates_->Lookup(&node)) return *served;
  }
  REMAC_ASSIGN_OR_RETURN(RtValue value, EvalImpl(node));
  value = ApplyTraits(std::move(value));
  if (intermediates_ != nullptr) intermediates_->Offer(&node, value);
  return value;
}

Result<RtValue> Executor::EvalImpl(const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kInput:
      if (steal_.has_value() && steal_->first == node.name) {
        RtValue stolen = std::move(steal_->second);
        steal_.reset();
        return stolen;
      }
      return Get(node.name);
    case PlanOp::kConst:
      return RtValue::Scalar(node.value);
    case PlanOp::kReadData:
      return ReadDataset(node.name);
    case PlanOp::kEye:
    case PlanOp::kZeros:
    case PlanOp::kOnes:
    case PlanOp::kRand:
      return EvalGenerator(node);
    case PlanOp::kTranspose: {
      // Fuse into a child multiply when possible; otherwise materialize.
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      if (child.is_scalar) return child;
      ++ops_executed_;
      Metrics().ops->Add();
      StageSpan span(Metrics().transpose_seconds, nullptr, "transpose");
      DistValue out =
          ExecTranspose(child.matrix, child.distributed, model_, ledger_);
      return RtValue::FromMatrix(std::move(out.value), out.distributed);
    }
    case PlanOp::kMatMul: {
      // Transpose fusion: unwrap t() children.
      const MatMulOperands ops = UnwrapMatMul(node);
      if (!ops.lhs_transposed && !ops.rhs_transposed) return EvalBinary(node);
      REMAC_ASSIGN_OR_RETURN(const RtValue a, Eval(*ops.lhs));
      REMAC_ASSIGN_OR_RETURN(const RtValue b, Eval(*ops.rhs));
      return MultiplyOperands(node, ops, a, b);
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
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      if (child.is_scalar) return child;
      if (ledger_ != nullptr) {
        ledger_->AddDistributedFlops(static_cast<double>(child.matrix.nnz()));
      }
      return RtValue::Scalar(SumAll(child.matrix));
    }
    case PlanOp::kTrace: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      if (child.is_scalar) return child;
      const Matrix& m = child.matrix;
      if (m.rows() != m.cols()) {
        return Status::DimensionMismatch("trace of a non-square matrix");
      }
      double total = 0.0;
      for (int64_t i = 0; i < m.rows(); ++i) total += m.At(i, i);
      if (ledger_ != nullptr) {
        ledger_->AddDistributedFlops(static_cast<double>(m.rows()));
      }
      return RtValue::Scalar(total);
    }
    case PlanOp::kExp:
    case PlanOp::kLog: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      if (child.is_scalar) {
        return RtValue::Scalar(node.op == PlanOp::kExp
                                   ? std::exp(child.scalar)
                                   : std::log(child.scalar));
      }
      ++ops_executed_;
      Metrics().ops->Add();
      if (node.op == PlanOp::kExp) {
        DenseMatrix d = child.matrix.ToDense();  // exp(0) = 1 densifies
        for (int64_t i = 0; i < d.size(); ++i) {
          d.data()[i] = std::exp(d.data()[i]);
        }
        const OpCosting costing =
            CostScalarOp(InfoOf(child.matrix, child.distributed), model_);
        costing.Book(ledger_);
        return RtValue::FromMatrix(Matrix::FromDense(std::move(d)),
                                   costing.result_distributed);
      }
      // Safe log: zero cells stay zero (stored explicit zeros included, so
      // the result is bitwise-identical to the fused tape's cell-wise
      // FusedApply(kLog) regardless of how zeros are represented).
      CsrMatrix csr = child.matrix.ToCsr();
      for (auto& v : csr.mutable_values()) {
        v = FusedApply(FusedOp::kLog, v, 0.0);
      }
      const OpCosting costing =
          CostScalarOp(InfoOf(child.matrix, child.distributed), model_);
      costing.Book(ledger_);
      return RtValue::FromMatrix(Matrix::FromCsr(std::move(csr)),
                                 costing.result_distributed);
    }
    case PlanOp::kRowSums:
    case PlanOp::kColSums: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      const Matrix m = child.AsMatrix();
      ++ops_executed_;
      Metrics().ops->Add();
      const bool rows = node.op == PlanOp::kRowSums;
      DenseMatrix out(rows ? m.rows() : 1, rows ? 1 : m.cols());
      const CsrMatrix csr = m.ToCsr();
      for (int64_t r = 0; r < csr.rows(); ++r) {
        for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
          if (rows) {
            out.At(r, 0) += csr.values()[k];
          } else {
            out.At(0, csr.col_idx()[k]) += csr.values()[k];
          }
        }
      }
      if (ledger_ != nullptr) {
        ledger_->AddDistributedFlops(static_cast<double>(m.nnz()));
      }
      Matrix result = Matrix::FromDense(std::move(out));
      const bool dist = IsDistributedSize(
          static_cast<double>(result.SizeInBytes()), model_);
      return RtValue::FromMatrix(std::move(result), dist);
    }
    case PlanOp::kDiag: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      const Matrix m = child.AsMatrix();
      ++ops_executed_;
      Metrics().ops->Add();
      if (m.cols() == 1) {
        std::vector<std::tuple<int64_t, int64_t, double>> triplets;
        for (int64_t i = 0; i < m.rows(); ++i) {
          const double v = m.At(i, 0);
          if (v != 0.0) triplets.emplace_back(i, i, v);
        }
        return RtValue::FromMatrix(
            Matrix::FromCsr(
                CsrMatrix::FromTriplets(m.rows(), m.rows(),
                                        std::move(triplets))),
            false);
      }
      if (m.rows() != m.cols()) {
        return Status::DimensionMismatch("diag of a non-square matrix");
      }
      DenseMatrix out(m.rows(), 1);
      for (int64_t i = 0; i < m.rows(); ++i) out.At(i, 0) = m.At(i, i);
      return RtValue::FromMatrix(Matrix::FromDense(std::move(out)), false);
    }
    case PlanOp::kNorm: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      if (child.is_scalar) return RtValue::Scalar(std::fabs(child.scalar));
      if (ledger_ != nullptr) {
        ledger_->AddDistributedFlops(
            2.0 * static_cast<double>(child.matrix.nnz()));
      }
      return RtValue::Scalar(FrobeniusNorm(child.matrix));
    }
    case PlanOp::kSqrt: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      REMAC_ASSIGN_OR_RETURN(const double v, child.AsScalar());
      return RtValue::Scalar(std::sqrt(v));
    }
    case PlanOp::kAbs: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      REMAC_ASSIGN_OR_RETURN(const double v, child.AsScalar());
      return RtValue::Scalar(std::fabs(v));
    }
    case PlanOp::kNcol:
    case PlanOp::kNrow: {
      REMAC_ASSIGN_OR_RETURN(const RtValue child, Eval(*node.children[0]));
      const Matrix m = child.AsMatrix();
      return RtValue::Scalar(static_cast<double>(
          node.op == PlanOp::kNcol ? m.cols() : m.rows()));
    }
    case PlanOp::kFusedMap:
      return EvalFusedMap(node);
    case PlanOp::kBlockRef:
      return Status::Internal("kBlockRef reached the executor");
  }
  return Status::Internal("unhandled op in Eval");
}

Result<std::optional<FusedLeaf>> Executor::EvalOuterSlot(
    const PlanNode& node, MatInfo* info, RtValue* materialized) {
  if (intermediates_ != nullptr && intermediates_->Tracks(&node)) {
    REMAC_ASSIGN_OR_RETURN(*materialized, Eval(node));
    return std::optional<FusedLeaf>();
  }
  const MatMulOperands ops = UnwrapMatMul(node);
  REMAC_ASSIGN_OR_RETURN(const RtValue a, Eval(*ops.lhs));
  REMAC_ASSIGN_OR_RETURN(const RtValue b, Eval(*ops.rhs));
  const int64_t m = node.shape.rows;
  const int64_t n = node.shape.cols;
  // The leaf reads the operands as dense vectors of u·vᵀ; sparse kernels
  // skip structural zeros where the dense per-cell product would not
  // (Inf · 0), so only dense operands stay unformed.
  auto dense_vector = [](const RtValue& v, int64_t length) {
    return !v.is_scalar && v.matrix.is_dense() &&
           (v.matrix.rows() == 1 || v.matrix.cols() == 1) &&
           v.matrix.rows() * v.matrix.cols() == length;
  };
  const bool lhs_column = dense_vector(a, m) &&
                          (ops.lhs_transposed ? a.matrix.rows()
                                              : a.matrix.cols()) == 1;
  const bool rhs_row = dense_vector(b, n) &&
                       (ops.rhs_transposed ? b.matrix.cols()
                                           : b.matrix.rows()) == 1;
  if (lhs_column && rhs_row) {
    // ActualSparsity of the product ExecMultiply would have formed.
    const double sp = static_cast<double>(OuterProductNnz(a.matrix, b.matrix)) /
                      static_cast<double>(m * n);
    const OpCosting costing = CostMultiply(
        InfoOfTransposed(a.matrix, ops.lhs_transposed, a.distributed),
        InfoOfTransposed(b.matrix, ops.rhs_transposed, b.distributed), sp,
        model_);
    // A 2D candidate is priced from the product's exact tile grid, so it
    // needs the product itself.
    if (!Summa2DCandidate(costing, model_)) {
      ++ops_executed_;
      Metrics().ops->Add();
      costing.Book(ledger_);
      info->rows = static_cast<double>(m);
      info->cols = static_cast<double>(n);
      info->sparsity = sp;
      // Mirror ApplyTraits, which the formed product would pass through.
      info->distributed = costing.result_distributed ||
                          (traits_.force_distributed && m * n > 1);
      FusedLeaf leaf;
      leaf.lhs = a.matrix;
      leaf.rhs = b.matrix;
      return std::optional<FusedLeaf>(std::move(leaf));
    }
  }
  REMAC_ASSIGN_OR_RETURN(RtValue product, MultiplyOperands(node, ops, a, b));
  *materialized = ApplyTraits(std::move(product));
  return std::optional<FusedLeaf>();
}

Result<RtValue> Executor::EvalFusedMap(const PlanNode& node) {
  if (node.fused == nullptr) {
    return Status::Internal("kFusedMap node without a tape");
  }
  const FusedTape& tape = *node.fused;
  if (node.children.size() != static_cast<size_t>(tape.num_inputs)) {
    return Status::Internal("fused region input arity mismatch");
  }
  // Evaluate the region inputs in slot order, capturing per-slot placement
  // info before the matrices move into the kernel. An outer-product input
  // that becomes a leaf books its multiply here, in the ledger turn the
  // formed product's evaluation would have taken.
  std::vector<Matrix> matrices;
  std::vector<double> scalars;
  std::vector<FusedLeaf> leaves;
  std::vector<MatInfo> slot_info(static_cast<size_t>(tape.num_inputs));
  for (int32_t i = 0; i < tape.num_inputs; ++i) {
    const size_t slot = static_cast<size_t>(i);
    const PlanNode& child = *node.children[i];
    RtValue v;
    if (tape.input_scalar[slot] == 0 && IsOuterProduct(child)) {
      REMAC_ASSIGN_OR_RETURN(std::optional<FusedLeaf> leaf,
                             EvalOuterSlot(child, &slot_info[slot], &v));
      if (leaf.has_value()) {
        leaf->slot = i;
        leaves.push_back(std::move(leaf).value());
        continue;
      }
    } else {
      REMAC_ASSIGN_OR_RETURN(v, Eval(child));
    }
    if (tape.input_scalar[slot] != 0) {
      REMAC_ASSIGN_OR_RETURN(const double s, v.AsScalar());
      scalars.push_back(s);
    } else {
      if (v.is_scalar) {
        return Status::Internal("scalar value in a matrix slot of " +
                                node.ToString());
      }
      slot_info[slot] = InfoOf(v.matrix, v.distributed);
      matrices.push_back(std::move(v.matrix));
    }
  }
  StageSpan span(Metrics().elementwise_seconds, nullptr, "fused");
  REMAC_ASSIGN_OR_RETURN(FusedExecResult exec,
                         ExecuteFusedTape(tape, std::move(matrices), scalars,
                                          std::move(leaves)));
  // Per-step cost booking mirrors the unfused operator sequence: every
  // tape step books exactly what the standalone operator would have
  // booked (scalar broadcasts and unary maps as CostScalarOp over the
  // matrix side; matrix-matrix steps as CostElementwise with the step's
  // exact result sparsity), so the cost audit still reconciles.
  const double cells =
      static_cast<double>(tape.rows) * static_cast<double>(tape.cols);
  std::vector<MatInfo> step_info(tape.steps.size());
  double bytes_avoided = 0.0;
  bool result_distributed = false;
  for (size_t j = 0; j < tape.steps.size(); ++j) {
    const FusedStep& step = tape.steps[j];
    const double sp =
        cells > 0.0 ? static_cast<double>(exec.step_nnz[j]) / cells : 0.0;
    auto operand_scalar = [&](int32_t slot) {
      return slot >= 0 && slot < tape.num_inputs &&
             tape.input_scalar[static_cast<size_t>(slot)] != 0;
    };
    auto operand_info = [&](int32_t slot) -> const MatInfo& {
      return slot < tape.num_inputs
                 ? slot_info[static_cast<size_t>(slot)]
                 : step_info[static_cast<size_t>(slot - tape.num_inputs)];
    };
    OpCosting costing;
    if (step.rhs < 0 || operand_scalar(step.lhs) ||
        operand_scalar(step.rhs)) {
      const int32_t mat_slot =
          (step.rhs >= 0 && operand_scalar(step.lhs)) ? step.rhs : step.lhs;
      if (operand_scalar(mat_slot)) {
        return Status::Internal("fused step with no matrix operand");
      }
      costing = CostScalarOp(operand_info(mat_slot), model_);
    } else {
      costing = CostElementwise(operand_info(step.lhs),
                                operand_info(step.rhs), sp, model_);
    }
    costing.Book(ledger_);
    ++ops_executed_;
    Metrics().ops->Add();
    MatInfo info;
    info.rows = static_cast<double>(tape.rows);
    info.cols = static_cast<double>(tape.cols);
    info.sparsity = sp;
    info.distributed = costing.result_distributed;
    // Mirror ApplyTraits: unfused intermediates pass through it one by
    // one, so placement-forcing personalities must see the same flow.
    if (traits_.force_distributed && cells > 1.0) info.distributed = true;
    step_info[j] = info;
    if (j + 1 < tape.steps.size()) {
      bytes_avoided += MatrixBytes(info.rows, info.cols, info.sparsity);
    }
    result_distributed = info.distributed;
  }
  Metrics().fusion_bytes_avoided->Add(
      static_cast<int64_t>(bytes_avoided));
  if (exec.in_place) Metrics().fusion_in_place->Add();
  return RtValue::FromMatrix(std::move(exec.output), result_distributed);
}

}  // namespace remac
