#include "oracle/shortcut_reference.hpp"

#include <algorithm>

#include "milp/branch_and_bound.hpp"

namespace xring::shortcut::reference {

namespace {

using geom::LRoute;

/// The paper's limit: a shortcut crosses at most one other shortcut.
constexpr int kMaxCrossingPartners = 1;

/// How two candidate chords (at their fixed orders) relate.
enum class PairKind { kDisjoint, kSingleCrossing, kIncompatible };

PairKind classify_pair(const LRoute& a, const LRoute& b) {
  const int crossings = geom::crossing_count(a, b);
  if (crossings == 0) return PairKind::kDisjoint;
  if (crossings == 1) return PairKind::kSingleCrossing;
  return PairKind::kIncompatible;
}

}  // namespace

ShortcutPlan optimal_shortcuts(const ring::RingGeometry& ring,
                               const netlist::Floorplan& floorplan,
                               const ShortcutOptions& options,
                               double time_limit_seconds) {
  ShortcutPlan plan;
  if (!options.enable) return plan;

  const std::vector<ChordCandidate> candidates =
      collect_candidates(ring, floorplan);
  const int m = static_cast<int>(candidates.size());
  if (m == 0) return plan;

  // Fix each candidate's realization to its first feasible order (the same
  // convention the geometric pair classification uses below).
  std::vector<LRoute> routes;
  routes.reserve(m);
  for (const ChordCandidate& c : candidates) {
    routes.emplace_back(floorplan.position(c.a), floorplan.position(c.b),
                        c.feasible_orders.front());
  }

  milp::Model model;
  model.set_maximize(true);
  for (const ChordCandidate& c : candidates) {
    model.add_binary(static_cast<double>(c.gain));
  }

  // Per-node shortcut budget.
  for (netlist::NodeId v = 0; v < floorplan.size(); ++v) {
    milp::Terms terms;
    for (int c = 0; c < m; ++c) {
      if (candidates[c].a == v || candidates[c].b == v) {
        terms.emplace_back(c, 1.0);
      }
    }
    if (!terms.empty()) {
      model.add_constraint(terms, milp::Sense::kLe,
                           static_cast<double>(options.max_per_node));
    }
  }

  // Pairwise geometry: incompatible pairs exclude each other; single
  // crossings count toward each chord's partner budget. The budget
  // constraint activates only when the chord itself is selected:
  //   sum_{j in X(i)} x_j <= max_partners + |X(i)| * (1 - x_i).
  std::vector<std::vector<int>> crossing_set(m);
  for (int i = 0; i < m; ++i) {
    for (int j = i + 1; j < m; ++j) {
      switch (classify_pair(routes[i], routes[j])) {
        case PairKind::kDisjoint:
          break;
        case PairKind::kIncompatible:
          model.add_constraint({{i, 1.0}, {j, 1.0}}, milp::Sense::kLe, 1.0);
          break;
        case PairKind::kSingleCrossing:
          crossing_set[i].push_back(j);
          crossing_set[j].push_back(i);
          break;
      }
    }
  }
  for (int i = 0; i < m; ++i) {
    if (crossing_set[i].empty()) continue;
    const double big = static_cast<double>(crossing_set[i].size());
    milp::Terms terms;
    for (const int j : crossing_set[i]) terms.emplace_back(j, 1.0);
    terms.emplace_back(i, big);
    model.add_constraint(terms, milp::Sense::kLe, kMaxCrossingPartners + big);
  }

  milp::BnbOptions bnb;
  bnb.time_limit_seconds = time_limit_seconds;
  // The greedy plan seeds the incumbent.
  {
    const ShortcutPlan greedy = build_shortcuts(ring, floorplan, options);
    std::vector<double> warm(m, 0.0);
    for (const Shortcut& s : greedy.shortcuts) {
      for (int c = 0; c < m; ++c) {
        if ((candidates[c].a == s.a && candidates[c].b == s.b) ||
            (candidates[c].a == s.b && candidates[c].b == s.a)) {
          warm[c] = 1.0;
        }
      }
    }
    bnb.warm_start = std::move(warm);
  }

  const milp::MipResult result = milp::solve(model, bnb);
  if (result.status != milp::MipStatus::kOptimal &&
      result.status != milp::MipStatus::kFeasible) {
    return build_shortcuts(ring, floorplan, options);  // defensive fallback
  }

  // Decode the selection, wiring up crossing partners and CSE points.
  std::vector<int> chosen;
  for (int c = 0; c < m; ++c) {
    if (result.x[c] > 0.5) chosen.push_back(c);
  }
  for (const int c : chosen) {
    Shortcut s;
    s.a = candidates[c].a;
    s.b = candidates[c].b;
    s.length = candidates[c].length;
    s.gain = candidates[c].gain;
    s.order = candidates[c].feasible_orders.front();
    plan.shortcuts.push_back(s);
  }
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    for (std::size_t j = i + 1; j < chosen.size(); ++j) {
      if (classify_pair(routes[chosen[i]], routes[chosen[j]]) !=
          PairKind::kSingleCrossing) {
        continue;
      }
      plan.shortcuts[i].crossing_partner = static_cast<int>(j);
      plan.shortcuts[j].crossing_partner = static_cast<int>(i);
      for (const geom::Segment& sa : routes[chosen[i]].segments()) {
        for (const geom::Segment& sb : routes[chosen[j]].segments()) {
          if (auto p = geom::crossing_point(sa, sb)) {
            plan.shortcuts[i].crossing = p;
            plan.shortcuts[j].crossing = p;
          }
        }
      }
    }
  }

  derive_cse_routes(plan, floorplan);
  return plan;
}

}  // namespace xring::shortcut::reference
