#ifndef REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_
#define REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_

#include "cluster/cluster_model.h"
#include "cluster/transmission_ledger.h"
#include "common/status.h"
#include "matrix/matrix.h"

namespace remac {

/// Physical multiplication operators, following SystemDS (paper Section 2.2):
/// a purely local operator, BMM (broadcast-based: one side is small and is
/// broadcast to the partitions of the other), and CPMM (cross-product
/// shuffle-based: both sides are shuffled on the inner dimension and the
/// partial products are aggregated with a second shuffle). kSumma2D is the
/// 2D tiled layout's primitive: A tiles broadcast along worker rows, B
/// tiles along worker columns, partial sums merged to the C tile owner —
/// annotated-empty tiles skip every leg.
enum class MultiplyMethod { kLocalOp, kBmm, kCpmm, kSumma2D };

const char* MultiplyMethodName(MultiplyMethod method);

/// Logical description of an operand, sufficient for costing: dimensions,
/// sparsity, and whether it lives distributed across workers or locally on
/// the driver. Used with *actual* statistics by the runtime and with
/// *estimated* statistics by the optimizer's cost model, so both sides of
/// the system price an operator identically.
struct MatInfo {
  double rows = 0;
  double cols = 0;
  double sparsity = 1.0;
  bool distributed = false;

  double Bytes() const;
};

/// Transmission volumes and FLOPs one operator books, plus where its
/// result lands.
struct OpCosting {
  MultiplyMethod method = MultiplyMethod::kLocalOp;
  double flops = 0.0;
  double broadcast_bytes = 0.0;
  double shuffle_bytes = 0.0;
  double collection_bytes = 0.0;
  /// Filesystem traffic: on a single-node model this carries the
  /// out-of-core streaming cost of operands that do not fit in memory
  /// (the paper's single-node experiments are disk-bound).
  double dfs_bytes = 0.0;
  /// SUMMA legs (kSumma2D only; zero for the 1D methods). Row/col
  /// broadcasts ride the broadcast primitive, the partial-sum merge the
  /// shuffle primitive, so the ledger's per-primitive split distinguishes
  /// the layouts.
  double row_broadcast_bytes = 0.0;
  double col_broadcast_bytes = 0.0;
  double reduce_bytes = 0.0;
  /// Tiles the SUMMA preprocessing pass annotated empty and therefore
  /// excluded from every communication leg (reporting only).
  int64_t empty_tiles_skipped = 0;
  bool result_distributed = false;

  /// Converts this costing to simulated seconds under `model`.
  double Seconds(const ClusterModel& model) const;

  /// Books this costing into `ledger`.
  void Book(TransmissionLedger* ledger) const;
};

/// Whether a value of `bytes` must live distributed (exceeds the driver
/// budget share SystemDS would grant a single object).
bool IsDistributedSize(double bytes, const ClusterModel& model);

/// Whether a value of `bytes` is small enough to broadcast to workers.
bool IsBroadcastable(double bytes, const ClusterModel& model);

/// Prices a matrix multiplication a * b with result sparsity `sp_out`.
/// Chooses local / BMM / CPMM exactly as the runtime does — the 1D
/// chooser; never returns kSumma2D (see SelectMultiplyCosting).
OpCosting CostMultiply(const MatInfo& a, const MatInfo& b, double sp_out,
                       const ClusterModel& model);

/// Prices a * b on the 2D tiled layout (SUMMA over the pr x pc worker
/// grid) from estimated statistics: per-tile bytes and empty-tile
/// probabilities are derived from the uniform-sparsity assumption, the
/// exact counterpart of which the runtime computes from the real tile
/// grids. Only meaningful when both operands are distributed.
OpCosting CostSumma2D(const MatInfo& a, const MatInfo& b, double sp_out,
                      const ClusterModel& model);

/// True when a multiply priced as `one_d` is eligible for the 2D layout
/// under `model`: the 1D chooser picked CPMM (both sides distributed),
/// there is more than one worker, and dist2d is not kOff.
bool Summa2DCandidate(const OpCosting& one_d, const ClusterModel& model);

/// The layout-aware multiply chooser: prices the 1D methods via
/// CostMultiply, and when the operator is a 2D candidate also prices
/// SUMMA, returning whichever costing is cheaper in simulated seconds
/// (kForce2D always takes SUMMA). The optimizer's cost model, the cost
/// audit, and the runtime all select through this one function, so the
/// three layers agree on the chosen layout.
OpCosting SelectMultiplyCosting(const MatInfo& a, const MatInfo& b,
                                double sp_out, const ClusterModel& model);

/// Prices an element-wise binary operator (add/sub/mul/div).
OpCosting CostElementwise(const MatInfo& a, const MatInfo& b, double sp_out,
                          const ClusterModel& model);

/// Prices a standalone transpose.
OpCosting CostTranspose(const MatInfo& a, const ClusterModel& model);

/// Prices a scalar-matrix operator.
OpCosting CostScalarOp(const MatInfo& a, const ClusterModel& model);

class TiledMatrix2D;
class Grid2DPartitioner;

/// Prices a * b on the 2D layout from *exact* tile grids (the runtime
/// path): every leg sums real per-tile bytes, annotated-empty tiles
/// contribute zero, and the partial-sum merge counts the distinct worker
/// columns actually holding non-empty contributing tile pairs per C tile.
/// `out` is the tiled view of the already-computed product.
OpCosting CostSummaTiled(const TiledMatrix2D& a, const TiledMatrix2D& b,
                         const TiledMatrix2D& out,
                         const Grid2DPartitioner& grid,
                         const ClusterModel& model);

/// Derives the MatInfo of an in-memory matrix (actual statistics).
MatInfo InfoOf(const Matrix& m, bool distributed);

/// InfoOf of op(m) without materializing the transpose: sparsity is
/// invariant under transposition, so only rows/cols swap.
MatInfo InfoOfTransposed(const Matrix& m, bool transposed, bool distributed);

/// Executes a * b (with optional transposes applied to either side, which
/// models SystemDS's fused transpose-multiply so that t(A) %*% v does not
/// materialize a distributed transpose), books the costing into `ledger`
/// (if non-null), and reports whether the result lands distributed.
struct DistValue {
  Matrix value;
  bool distributed = false;
};

Result<DistValue> ExecMultiply(const Matrix& a, bool a_distributed,
                               bool a_transposed, const Matrix& b,
                               bool b_distributed, bool b_transposed,
                               const ClusterModel& model,
                               TransmissionLedger* ledger);

enum class BinaryOpKind { kAdd, kSub, kElemMul, kElemDiv, kMin, kMax };

Result<DistValue> ExecElementwise(BinaryOpKind op, const Matrix& a,
                                  bool a_distributed, const Matrix& b,
                                  bool b_distributed,
                                  const ClusterModel& model,
                                  TransmissionLedger* ledger);

DistValue ExecTranspose(const Matrix& a, bool a_distributed,
                        const ClusterModel& model, TransmissionLedger* ledger);

DistValue ExecScalarMultiply(const Matrix& a, bool a_distributed, double s,
                             const ClusterModel& model,
                             TransmissionLedger* ledger);

}  // namespace remac

#endif  // REMAC_DISTRIBUTED_DISTRIBUTED_OPS_H_
