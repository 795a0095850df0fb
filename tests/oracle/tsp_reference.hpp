#pragma once

// The paper-literal Step-1 MILP (Sec. III-A, Eqs. 1-4) with every row
// materialized up front, kept as the reference the production model
// (ring/tsp_model.hpp, which separates Eq. 2 and Eq. 3 on demand) is checked
// against. O(|E|^2) rows: only the differential test suites link it.

#include "milp/model.hpp"
#include "ring/conflict.hpp"

namespace xring::ring::reference {

/// One binary per directed edge in ring::EdgeSpace order (so
/// TspModel::warm_start_from / selected_edges read its points), objective
/// the Manhattan length in µm (Eq. 4); two degree rows per node (Eq. 1),
/// one anti-2-cycle row per node pair (Eq. 2) and one row per conflicting
/// undirected edge pair over both directions of each edge (Eq. 3). No
/// symmetry-breaking row.
milp::Model exhaustive_tsp_model(const netlist::Floorplan& floorplan,
                                 const ConflictOracle& oracle);

}  // namespace xring::ring::reference
