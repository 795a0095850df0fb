#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace xring::lp {

/// A sparse matrix column: (row, value) pairs, unordered.
using SparseCol = std::vector<std::pair<int, double>>;

/// Counters a basis representation accumulates over one LP solve. The
/// simplex surfaces them in Solution::stats and `lp::solve` exports them as
/// obs metrics (`lp.refactorizations`, `lp.eta_nnz`, `lp.ftran_density`).
struct FactorStats {
  long long factorizations = 0;  ///< factorize() calls (1 = initial only)
  long long eta_nnz = 0;         ///< nonzeros appended to the eta file
  long long ftran_calls = 0;
  long long ftran_nnz = 0;       ///< sum of ftran result nonzeros
  long long lu_nnz = 0;          ///< nnz(L) + nnz(U) of the last factorization
};

/// Representation of the simplex basis matrix B (column i = A[basis[i]]).
///
/// The production implementation, SparseLuBasis, keeps a Markowitz-ordered
/// sparse LU factorization plus a product-form eta file, refactorizing
/// periodically. Memory and per-pivot work scale with fill-in, not m^2 —
/// this is what lets the ring-construction MILP reach 64-128 node
/// instances. The original explicit-inverse kernel lives in the test
/// oracles (tests/oracle/lp_reference.hpp) and runs through
/// lp::detail::solve.
///
/// Index spaces: "row" means an original constraint row, "slot" means a
/// basis position (slot i holds column basis[i]). ftran maps a column from
/// row space into slot space; btran maps slot-space costs into row-space
/// duals.
class BasisRep {
 public:
  enum class Update { kOk, kRefactorize, kSingular };

  virtual ~BasisRep() = default;

  /// Factorizes B from the basic columns. Returns false when (numerically)
  /// singular. Resets the eta file.
  virtual bool factorize(const std::vector<SparseCol>& cols,
                         const std::vector<int>& basis) = 0;

  /// w = B^-1 a for a sparse column `a`; fills the dense slot-space vector
  /// `w` (resized to m) and the list of its nonzero slots.
  virtual void ftran(const SparseCol& a, std::vector<double>& w,
                     std::vector<int>& nz) = 0;

  /// x = B^-1 b for a dense row-space vector `b` (used to recompute the
  /// basic values from scratch). `x` is slot-space.
  virtual void ftran_dense(const std::vector<double>& b,
                           std::vector<double>& x) = 0;

  /// y = B^-T cb for a dense slot-space vector `cb` (cb[i] = objective of
  /// the variable basic in slot i); `y` are the row-space simplex
  /// multipliers.
  virtual void btran(const std::vector<double>& cb, std::vector<double>& y) = 0;

  /// Registers the basis change "column `enter` becomes basic in slot
  /// `leave`", where `w`/`wnz` is ftran of the entering column under the
  /// *current* representation. kRefactorize asks the caller to refactorize
  /// (growth/accuracy trigger tripped); kSingular reports a numerically
  /// unusable pivot.
  virtual Update update(int leave, const std::vector<double>& w,
                        const std::vector<int>& wnz) = 0;

  FactorStats stats;
};

/// Markowitz sparse LU + product-form eta updates + periodic
/// refactorization.
std::unique_ptr<BasisRep> make_sparse_lu_basis(int m);

}  // namespace xring::lp
