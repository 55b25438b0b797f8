#ifndef REMAC_MATRIX_FUSED_TAPE_H_
#define REMAC_MATRIX_FUSED_TAPE_H_

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "matrix/matrix.h"

namespace remac {

/// Opcode of one fused elementwise step. The kernel layer owns this enum
/// (the plan layer maps PlanOp onto it) so the tape interpreter has no
/// dependency on the plan.
enum class FusedOp : uint8_t { kAdd, kSub, kMul, kDiv, kMin, kMax, kExp, kLog };

const char* FusedOpName(FusedOp op);

/// The single source of truth for per-cell elementwise semantics: the
/// unfused kernels, the executor's scalar paths, and the fused tape
/// interpreter all apply exactly this function, which is what makes fused
/// execution bitwise-identical to the unfused operator sequence.
///   - divide is the "safe divide" (zero denominators yield 0);
///   - log is the safe log (zero cells stay 0, matching the CSR
///     stored-values-only application);
///   - min/max tie-break toward the left operand.
/// Unary ops ignore `b`.
inline double FusedApply(FusedOp op, double a, double b) {
  switch (op) {
    case FusedOp::kAdd: return a + b;
    case FusedOp::kSub: return a - b;
    case FusedOp::kMul: return a * b;
    case FusedOp::kDiv: return b == 0.0 ? 0.0 : a / b;
    case FusedOp::kMin: return b < a ? b : a;
    case FusedOp::kMax: return b > a ? b : a;
    case FusedOp::kExp: return std::exp(a);
    case FusedOp::kLog: return a == 0.0 ? 0.0 : std::log(a);
  }
  return 0.0;
}

/// One step of a fused tape. Slot numbering: slots [0, num_inputs) are the
/// region inputs in child order; slot num_inputs + j is the result of step
/// j. `rhs` is -1 for unary ops (kExp/kLog).
struct FusedStep {
  FusedOp op = FusedOp::kAdd;
  int32_t lhs = -1;
  int32_t rhs = -1;
  bool operator==(const FusedStep&) const = default;
};

/// \brief Post-order tape of a fused elementwise region.
///
/// All matrix slots share the region shape `rows x cols`; slots flagged in
/// `input_scalar` are scalar-broadcast operands. The last step's result is
/// the region output. Tapes are immutable once built and shared by
/// pointer from the kFusedMap plan node.
struct FusedTape {
  int64_t rows = 0;
  int64_t cols = 0;
  int32_t num_inputs = 0;
  std::vector<uint8_t> input_scalar;  // size num_inputs; 1 = scalar slot
  std::vector<FusedStep> steps;

  bool operator==(const FusedTape&) const = default;

  /// Canonical one-line rendering, e.g. "M,S|t0=sub(i0,i1);t1=div(t0,i2)".
  /// Stable across processes: used in plan ToString and as part of the
  /// matcache canonical key.
  std::string ToString() const;
};

/// An outer-product leaf evaluated inside the tape: matrix slot `slot`
/// takes, per cell, the value the local GEMM kernels give a k = 1
/// product u·vᵀ: u[i] == 0 ? +0.0 : 0.0 + u[i]·v[x]. `lhs` holds the
/// tape's `rows` values of u and `rhs` its `cols` values of v; both are
/// dense, in either orientation (a vector's data is contiguous whichever
/// way it is transposed).
struct FusedLeaf {
  int32_t slot = -1;
  Matrix lhs;
  Matrix rhs;
};

/// Exact nnz of a leaf's product lhs·rhsᵀ under the FusedLeaf semantics,
/// without forming it (both operands dense vectors).
int64_t OuterProductNnz(const Matrix& lhs, const Matrix& rhs);

/// Result of executing a fused tape.
struct FusedExecResult {
  Matrix output;
  /// Exact non-zero count of every step's (conceptual) intermediate,
  /// including the final output. Feeds per-step cost booking so the
  /// ledger matches the unfused operator sequence.
  std::vector<int64_t> step_nnz;
  /// True when the CSR value-array fast path ran (all matrix inputs
  /// shared one sparsity structure and zeros stay zeros through the tape).
  bool csr_path = false;
  /// True when the output was computed in place inside a dying input's
  /// dense buffer (no fresh allocation for the result grid).
  bool in_place = false;
};

/// Executes `tape` in a single pass over the data. `leaves` holds the
/// matrix slots given as outer-product leaves, in slot order. `matrices`
/// holds the operands of every other matrix slot in slot order (i.e.
/// skipping scalar slots and leaves) and is taken by value:
/// when a dense operand's payload is uniquely owned it is stolen and the
/// output is computed in place (safe because every cell reads all of its
/// inputs before the output cell is written). `scalars` holds the
/// scalar-slot operands in slot order. A tape with leaves always runs the
/// dense path.
Result<FusedExecResult> ExecuteFusedTape(const FusedTape& tape,
                                         std::vector<Matrix> matrices,
                                         const std::vector<double>& scalars,
                                         std::vector<FusedLeaf> leaves = {});

}  // namespace remac

#endif  // REMAC_MATRIX_FUSED_TAPE_H_
