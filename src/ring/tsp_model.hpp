#pragma once

#include "milp/branch_and_bound.hpp"
#include "milp/model.hpp"
#include "ring/conflict.hpp"

namespace xring::ring {

/// The paper's modified-TSP MILP (Sec. III-A):
///  * binary b_e per directed edge e,
///  * in/out degree exactly 1 per vertex        (Eq. 1),
///  * b_(i,j) + b_(j,i) <= 1                    (Eq. 2),
///  * conflicting pairs not co-selected         (Eq. 3),
///  * minimize total Manhattan length           (Eq. 4).
/// Connectivity is deliberately *not* modelled; sub-cycles in the optimum
/// are merged afterwards by the paper's heuristic (subcycle.hpp).
///
/// Only the 2n degree rows (Eq. 1) are materialized. Eq. 2 and Eq. 3 —
/// n(n-1)/2 and O(|E|^2) rows, the bulk of a paper-literal root LP — are
/// recovered exactly where they bind: as cutting planes where a fractional
/// relaxation violates them (cut_separator) and as lazy rows where an
/// integer candidate does (lazy_handler). Every recovered row is a row of
/// the paper's exhaustive formulation, so the optimum is unchanged; the
/// tests solve that formulation (tests/oracle/tsp_reference.hpp) as the
/// reference.
class TspModel {
 public:
  TspModel(const netlist::Floorplan& floorplan, const ConflictOracle& oracle);

  const milp::Model& model() const { return model_; }
  const EdgeSpace& edges() const { return edges_; }

  /// Every feasible point is a directed cycle cover, and every closed
  /// rectilinear cycle is an even multiple of g, the gcd of the node
  /// coordinate offsets (offset_gcd): the objective lies on 2g·Z. Pass it
  /// as milp::BnbOptions::objective_lattice. Step 0 when g is 0.
  const milp::ObjectiveLattice& objective_lattice() const { return lattice_; }

  /// Breaks the tour's reflective symmetry. The edge formulation already
  /// quotients out rotations (a tour's edge set is rotation-invariant), so
  /// the only residual symmetry is reversal: every selection and its mirror
  /// are distinct variable assignments with identical objective. One
  /// orientation row on node 0 — sum_u u*b_(0,u) - sum_u u*b_(u,0), i.e.
  /// succ(0) - pred(0), forced <= -1 or >= +1 — keeps exactly one of each
  /// mirror pair, halving the search space. The inequality's direction is
  /// taken from `reference` (normally the heuristic warm-start tour) so the
  /// warm start stays feasible and a solver that returns the warm start
  /// returns it unreversed — downstream ring direction is untouched.
  /// No-op for fewer than 3 nodes.
  void add_symmetry_breaking(const std::vector<NodeId>& reference);

  /// Lazy handler enforcing the rows not materialized up front on a
  /// candidate integer selection: Eq. 2 rows for selected 2-cycles and
  /// Eq. 3 rows for selected conflicting pairs.
  milp::LazyConstraintHandler lazy_handler() const;

  /// Cutting-plane separator for fractional LP points (see
  /// milp::CutSeparator): violated Eq. 2 rows and Eq. 3 conflict rows whose
  /// undirected-edge LP mass exceeds 1. All returned rows are rows of the
  /// paper's exhaustive formulation, hence globally valid.
  milp::CutSeparator cut_separator() const;

  /// Converts a tour (cyclic node order) into a b_e assignment usable as a
  /// warm start.
  std::vector<double> warm_start_from(const std::vector<NodeId>& order) const;

  /// Decodes a solved b_e vector into the selected directed edges.
  std::vector<std::pair<NodeId, NodeId>> selected_edges(
      const std::vector<double>& x) const;

 private:
  const ConflictOracle* oracle_;
  EdgeSpace edges_;
  milp::Model model_;
  milp::ObjectiveLattice lattice_;
};

}  // namespace xring::ring
