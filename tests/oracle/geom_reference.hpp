#pragma once

// Reference form of the paper's pairwise conflict test (Sec. III-A), kept as
// a differential oracle for geom::edges_conflict and ring::ConflictOracle.
// It builds all four L-option pairs and asks routes_cross of each, with no
// early exit: only the differential test suites link it.

#include "geom/lshape.hpp"

namespace xring::geom::reference {

/// Edges sharing an endpoint never conflict (the modelling rule); otherwise
/// two edges conflict iff every one of the four combinations of their
/// L-route options crosses.
bool edges_conflict(Point a_from, Point a_to, Point b_from, Point b_to);

}  // namespace xring::geom::reference
