#include "oracle/tsp_reference.hpp"

#include <utility>

namespace xring::ring::reference {

milp::Model exhaustive_tsp_model(const netlist::Floorplan& floorplan,
                                 const ConflictOracle& oracle) {
  const int n = floorplan.size();
  const EdgeSpace edges(n);
  milp::Model model;
  for (int e = 0; e < edges.count(); ++e) {
    const auto [from, to] = edges.edge(e);
    model.add_binary(static_cast<double>(floorplan.distance(from, to)));
  }
  // Eq. 1.
  for (NodeId v = 0; v < n; ++v) {
    milp::Terms out_terms, in_terms;
    for (NodeId u = 0; u < n; ++u) {
      if (u == v) continue;
      out_terms.emplace_back(edges.index(v, u), 1.0);
      in_terms.emplace_back(edges.index(u, v), 1.0);
    }
    model.add_constraint(std::move(out_terms), milp::Sense::kEq, 1.0);
    model.add_constraint(std::move(in_terms), milp::Sense::kEq, 1.0);
  }
  // Eq. 2.
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = i + 1; j < n; ++j) {
      model.add_constraint({{edges.index(i, j), 1.0}, {edges.index(j, i), 1.0}},
                           milp::Sense::kLe, 1.0);
    }
  }
  // Eq. 3, each unordered pair of undirected edges once.
  for (NodeId a1 = 0; a1 < n; ++a1) {
    for (NodeId a2 = a1 + 1; a2 < n; ++a2) {
      for (NodeId b1 = a1; b1 < n; ++b1) {
        for (NodeId b2 = b1 + 1; b2 < n; ++b2) {
          if (std::make_pair(b1, b2) <= std::make_pair(a1, a2)) continue;
          if (!oracle.conflict(a1, a2, b1, b2)) continue;
          model.add_constraint({{edges.index(a1, a2), 1.0},
                                {edges.index(a2, a1), 1.0},
                                {edges.index(b1, b2), 1.0},
                                {edges.index(b2, b1), 1.0}},
                               milp::Sense::kLe, 1.0);
        }
      }
    }
  }
  return model;
}

}  // namespace xring::ring::reference
