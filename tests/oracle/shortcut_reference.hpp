#pragma once

// ILP-optimal Step 2, kept as the reference the greedy shortcut selection
// (shortcut/shortcut.hpp build_shortcuts, the paper's method) is measured
// against. Only the differential test suites link it.

#include "shortcut/shortcut.hpp"

namespace xring::shortcut::reference {

/// Maximizes total gain subject to the greedy's structural constraints:
/// per-node budget, pairwise compatibility, and at most one crossing
/// partner per selected chord. Solved with the bundled MILP solver, warm
/// started from the greedy plan.
ShortcutPlan optimal_shortcuts(const ring::RingGeometry& ring,
                               const netlist::Floorplan& floorplan,
                               const ShortcutOptions& options = {},
                               double time_limit_seconds = 10.0);

}  // namespace xring::shortcut::reference
