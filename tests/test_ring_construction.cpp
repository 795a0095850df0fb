#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>

#include "oracle/geom_reference.hpp"
#include "oracle/tsp_reference.hpp"
#include "ring/builder.hpp"

namespace xring::ring {
namespace {

TEST(EdgeSpace, IndexRoundTrip) {
  const EdgeSpace es(5);
  EXPECT_EQ(es.count(), 20);
  for (int e = 0; e < es.count(); ++e) {
    const auto [from, to] = es.edge(e);
    EXPECT_NE(from, to);
    EXPECT_EQ(es.index(from, to), e);
  }
}

TEST(EdgeSpace, ReverseIsInvolution) {
  const EdgeSpace es(6);
  for (int e = 0; e < es.count(); ++e) {
    EXPECT_NE(es.reverse(e), e);
    EXPECT_EQ(es.reverse(es.reverse(e)), e);
  }
}

TEST(ConflictOracle, SameEdgeNeverConflicts) {
  const auto fp = netlist::Floorplan::grid(2, 2, 10);
  const ConflictOracle oracle(fp);
  EXPECT_FALSE(oracle.conflict(0, 1, 0, 1));
  EXPECT_FALSE(oracle.conflict(0, 1, 1, 0));
}

/// `nodes` distinct sites drawn uniformly from a `sites` x `sites` grid at
/// `pitch_x` x `pitch_y` µm (1 mm by default), so node pairs share rows and
/// columns often and their bounding boxes touch, nest and coincide.
netlist::Floorplan irregular(int nodes, int sites, unsigned seed,
                             geom::Coord pitch_x = 1000,
                             geom::Coord pitch_y = 1000) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cell(0, sites - 1);
  std::set<std::pair<int, int>> used;
  std::vector<netlist::Node> out;
  while (static_cast<int>(out.size()) < nodes) {
    const int x = cell(rng), y = cell(rng);
    if (!used.insert({x, y}).second) continue;
    out.push_back({0, geom::Point{x * pitch_x, y * pitch_y}, ""});
  }
  return netlist::Floorplan(std::move(out), (sites + 1) * pitch_x,
                            (sites + 1) * pitch_y);
}

TEST(ConflictOracle, MatchesDirectGeometryTest) {
  const auto grid = netlist::Floorplan::grid(3, 3, 10);
  const auto scattered = irregular(24, 12, 7);
  for (const netlist::Floorplan* fp : {&grid, &scattered}) {
    SCOPED_TRACE(fp->size());
    const ConflictOracle oracle(*fp);
    ASSERT_TRUE(oracle.dense());
    const NodeId n = fp->size();
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = a + 1; b < n; ++b) {
        for (NodeId c = 0; c < n; ++c) {
          for (NodeId d = c + 1; d < n; ++d) {
            if (a == c && b == d) continue;
            ASSERT_EQ(oracle.conflict(a, b, c, d),
                      geom::reference::edges_conflict(
                          fp->position(a), fp->position(b), fp->position(c),
                          fp->position(d)))
                << a << "," << b << " vs " << c << "," << d;
          }
        }
      }
    }
  }
}

TEST(ConflictOracle, OnDemandModeMatchesDirectGeometryTest) {
  // One node past the dense limit the oracle answers every query from
  // geometry; sample it against the reference.
  const int n = ConflictOracle::kDenseNodeLimit + 1;
  const auto fp = irregular(n, 16, 11);
  const ConflictOracle oracle(fp);
  ASSERT_FALSE(oracle.dense());
  std::mt19937 rng(5);
  std::uniform_int_distribution<NodeId> node(0, n - 1);
  int conflicts = 0;
  for (int i = 0; i < 100000; ++i) {
    const NodeId a = node(rng), b = node(rng), c = node(rng), d = node(rng);
    const bool same_edge = (a == c && b == d) || (a == d && b == c);
    const bool expected =
        a != b && c != d && !same_edge &&
        geom::reference::edges_conflict(fp.position(a), fp.position(b),
                                        fp.position(c), fp.position(d));
    conflicts += expected;
    ASSERT_EQ(oracle.conflict(a, b, c, d), expected)
        << a << "," << b << " vs " << c << "," << d;
  }
  EXPECT_GT(conflicts, 0);
}

TEST(Tour, ArcLengthsAndHops) {
  const auto fp = netlist::Floorplan::grid(1, 4, 10);  // collinear 4 nodes
  const Tour t({0, 1, 2, 3}, &fp);
  EXPECT_EQ(t.total_length(), 10 + 10 + 10 + 30);
  EXPECT_EQ(t.hops_cw(0, 2), 2);
  EXPECT_EQ(t.hops_cw(2, 0), 2);
  EXPECT_EQ(t.arc_length_cw(0, 2), 20);
  EXPECT_EQ(t.arc_length_ccw(0, 2), 40);
  EXPECT_EQ(t.arc_length_cw(3, 0), 30);
}

TEST(Tour, ArcIdentity) {
  const auto fp = netlist::Floorplan::standard(8);
  const Tour t({0, 1, 2, 3, 7, 6, 5, 4}, &fp);
  for (netlist::NodeId a = 0; a < 8; ++a) {
    for (netlist::NodeId b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_EQ(t.arc_length_cw(a, b) + t.arc_length_ccw(a, b),
                t.total_length());
      EXPECT_EQ(t.arc_length_cw(a, b), t.arc_length_ccw(b, a));
    }
  }
}

TEST(Tour, HopsOnArc) {
  const auto fp = netlist::Floorplan::grid(1, 4, 10);
  const Tour t({0, 1, 2, 3}, &fp);
  EXPECT_EQ(t.hops_on_arc_cw(1, 3), (std::vector<int>{1, 2}));
  EXPECT_EQ(t.hops_on_arc_cw(3, 1), (std::vector<int>{3, 0}));
}

TEST(Tour, RejectsDuplicatesAndTiny) {
  EXPECT_THROW(Tour({0, 1}), std::invalid_argument);
  EXPECT_THROW(Tour({0, 1, 1}), std::invalid_argument);
}

TEST(ExtractCycles, SplitsPermutationIntoCycles) {
  // 0->1->0 and 2->3->4->2.
  const std::vector<std::pair<netlist::NodeId, netlist::NodeId>> edges = {
      {0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}};
  const auto cycles = extract_cycles(edges, 5);
  ASSERT_EQ(cycles.size(), 2u);
  EXPECT_EQ(cycles[0].size() + cycles[1].size(), 5u);
}

TEST(ExtractCycles, RejectsDoubleOutDegree) {
  EXPECT_THROW(extract_cycles({{0, 1}, {0, 2}}, 3), std::invalid_argument);
}

TEST(MergeCycles, ProducesSingleCycleVisitingAll) {
  const auto fp = netlist::Floorplan::standard(16);
  const ConflictOracle oracle(fp);
  // Four 4-cycles over the 4x4 grid (the typical MILP sub-cycle outcome).
  std::vector<Cycle> cycles = {
      {0, 1, 5, 4}, {2, 3, 7, 6}, {8, 9, 13, 12}, {10, 11, 15, 14}};
  const Cycle merged = merge_cycles(cycles, fp, oracle);
  ASSERT_EQ(merged.size(), 16u);
  std::vector<bool> seen(16, false);
  for (const netlist::NodeId v : merged) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(MergeCycles, SingleCycleIsReturnedVerbatim) {
  const auto fp = netlist::Floorplan::standard(8);
  const ConflictOracle oracle(fp);
  const Cycle c = {0, 1, 2, 3, 7, 6, 5, 4};
  EXPECT_EQ(merge_cycles({c}, fp, oracle), c);
}

TEST(Heuristic, ToursAreValidPermutations) {
  for (const int n : {8, 16}) {
    const auto fp = netlist::Floorplan::standard(n);
    const ConflictOracle oracle(fp);
    const auto tour = heuristic_tour(fp, oracle);
    ASSERT_EQ(static_cast<int>(tour.size()), n);
    std::vector<bool> seen(n, false);
    for (const netlist::NodeId v : tour) {
      EXPECT_FALSE(seen[v]);
      seen[v] = true;
    }
  }
}

TEST(Heuristic, GridTourIsConflictFreeAndTight) {
  const auto fp = netlist::Floorplan::standard(16);
  const ConflictOracle oracle(fp);
  const auto tour = heuristic_tour(fp, oracle);
  EXPECT_EQ(tour_conflicts(tour, oracle), 0);
  // A Hamiltonian cycle of unit edges exists on the 4x4 grid: 32 mm.
  EXPECT_LE(tour_length(tour, fp), 36000);
}

TEST(Builder, EightNodeOptimalPerimeter) {
  const auto fp = netlist::Floorplan::standard(8);
  const RingBuildResult r = build_ring(fp);
  EXPECT_EQ(r.mip_status, milp::MipStatus::kOptimal);
  // 2x4 grid perimeter: 2 * (3 + 1) * 2 mm.
  EXPECT_EQ(r.geometry.tour.total_length(), 16000);
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, SixteenNodeOptimalHamiltonianCycle) {
  const auto fp = netlist::Floorplan::standard(16);
  const RingBuildResult r = build_ring(fp);
  EXPECT_EQ(r.mip_status, milp::MipStatus::kOptimal);
  EXPECT_EQ(r.geometry.tour.total_length(), 32000);  // all unit edges
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, ProductionRingMatchesTheExhaustiveOracle) {
  // build_ring solves the separated model with the parity lattice; the
  // paper-literal exhaustive formulation, solved without a lattice, must
  // reach the same optimum. The ring realizes that optimum (after sub-cycle
  // merging), and its certified bound is the optimum. The layouts include
  // odd pitches (g = 1 µm and 500 µm) and mixed x/y pitches, where the
  // lattice step 2g differs from the 1 mm default.
  struct Layout {
    netlist::Floorplan fp;
    geom::Coord g;  // gcd of the coordinate offsets
  };
  std::vector<Layout> layouts;
  std::vector<netlist::Node> nodes;
  const geom::Point pts[] = {{0, 0}, {3000, 500}, {5000, 2500},
                             {2500, 4000}, {500, 2600}, {4200, 4800}};
  for (const auto& p : pts) nodes.push_back({0, p, ""});
  layouts.push_back({netlist::Floorplan(std::move(nodes), 6000, 6000), 100});
  for (int n = 10; n <= 14; ++n) {
    layouts.push_back({irregular(n, 8, 30 + n), 1000});
  }
  for (int n = 10; n <= 12; ++n) {
    layouts.push_back({irregular(n, 8, 50 + n, 1, 1), 1});
    layouts.push_back({irregular(n, 8, 60 + n, 500, 500), 500});
    layouts.push_back({irregular(n, 8, 70 + n, 1000, 1500), 500});
    layouts.push_back({irregular(n, 8, 80 + n, 999, 1000), 1});
  }

  for (const Layout& layout : layouts) {
    const netlist::Floorplan& fp = layout.fp;
    SCOPED_TRACE(testing::Message() << "n=" << fp.size() << " g=" << layout.g);
    const ConflictOracle oracle(fp);
    milp::BnbOptions bnb;
    bnb.time_limit_seconds = 60.0;
    const milp::MipResult ex =
        milp::solve(reference::exhaustive_tsp_model(fp, oracle), bnb);
    ASSERT_EQ(ex.status, milp::MipStatus::kOptimal);
    const auto optimum = static_cast<geom::Coord>(std::llround(ex.objective));

    // The declared lattice holds the optimum.
    const TspModel tsp(fp, oracle);
    const milp::ObjectiveLattice& lattice = tsp.objective_lattice();
    std::vector<NodeId> all(fp.size());
    std::iota(all.begin(), all.end(), 0);
    ASSERT_EQ(offset_gcd(fp, all), layout.g);
    ASSERT_EQ(lattice.step, 2.0 * static_cast<double>(layout.g));
    EXPECT_EQ(optimum % (2 * layout.g), 0);

    const RingBuildResult r = build_ring(fp, oracle);
    ASSERT_EQ(r.mip_status, milp::MipStatus::kOptimal);
    EXPECT_EQ(r.lower_bound_um, std::max(optimum, tour_lower_bound(fp)));
    EXPECT_GE(r.geometry.tour.total_length(), optimum);
    if (r.subcycles_before_merge == 1) {
      EXPECT_EQ(r.geometry.tour.total_length(), optimum);
    }
    EXPECT_EQ(r.geometry.crossings, 0);

    // Stopped early, the lifted bound is a lattice value and still never
    // exceeds the optimum.
    for (const long limit : {1L, 3L, 10L}) {
      milp::BnbOptions early;
      early.node_limit = limit;
      early.lazy_handler = tsp.lazy_handler();
      early.cut_separator = tsp.cut_separator();
      early.objective_lattice = lattice;
      const milp::MipResult m = milp::solve(tsp.model(), early);
      if (!std::isfinite(m.best_bound)) continue;
      EXPECT_LE(m.best_bound, static_cast<double>(optimum) + 1e-6)
          << "node limit " << limit;
      if (m.status == milp::MipStatus::kOptimal) {
        EXPECT_EQ(std::llround(m.objective), optimum);
      }
    }
  }
}

TEST(Builder, CoincidentSitesDeclareNoLattice) {
  // g = 0 when every coordinate offset is zero: the lattice step is 0, i.e.
  // no lattice, and milp::solve runs its plain search (the milp Lattice
  // tests pin that a zero step leaves the search untouched).
  std::vector<netlist::Node> nodes;
  for (int i = 0; i < 3; ++i) nodes.push_back({0, geom::Point{700, 300}, ""});
  const netlist::Floorplan same(std::move(nodes), 1000, 1000);
  EXPECT_EQ(offset_gcd(same, {0, 1, 2}), 0);
  const auto grid = netlist::Floorplan::grid(2, 3, 1500);
  EXPECT_EQ(offset_gcd(grid, {4}), 0);
  EXPECT_EQ(offset_gcd(grid, {0, 1, 2, 3, 4, 5}), 1500);
  EXPECT_EQ(offset_gcd(grid, {0, 3}), 1500);
  const ConflictOracle oracle(grid);
  const TspModel tsp(grid, oracle);
  EXPECT_EQ(tsp.objective_lattice().step, 3000.0);
  EXPECT_EQ(tsp.objective_lattice().offset, 0.0);
}

TEST(Builder, HeuristicOnlyModeWorks) {
  const auto fp = netlist::Floorplan::standard(16);
  RingBuildOptions opt;
  opt.use_milp = false;
  const RingBuildResult r = build_ring(fp, opt);
  EXPECT_EQ(static_cast<int>(r.geometry.tour.order().size()), 16);
  EXPECT_EQ(r.geometry.crossings, 0);
}

TEST(Builder, IrregularLayoutStaysCrossingFree) {
  std::vector<netlist::Node> nodes;
  const geom::Point pts[] = {{0, 0},       {4000, 800},  {7500, 300},
                             {9000, 3500}, {6500, 6000}, {8800, 8200},
                             {4200, 9000}, {900, 7800},  {300, 4200},
                             {3000, 4600}};
  for (const auto& p : pts) nodes.push_back({0, p, ""});
  const netlist::Floorplan fp(std::move(nodes), 10000, 10000);
  const RingBuildResult r = build_ring(fp);
  EXPECT_TRUE(r.mip_status == milp::MipStatus::kOptimal ||
              r.mip_status == milp::MipStatus::kFeasible);
  EXPECT_EQ(r.geometry.crossings, 0);
  EXPECT_EQ(r.geometry.polyline.self_crossings(), 0);
}

/// Property sweep: rings over growing grids are permutations, conflict-free,
/// and no longer than the heuristic bound.
class BuilderGrid : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(BuilderGrid, ValidRing) {
  const auto [rows, cols] = GetParam();
  const auto fp = netlist::Floorplan::grid(rows, cols, 1000);
  const ConflictOracle oracle(fp);
  const RingBuildResult r = build_ring(fp, oracle, {});
  const int n = rows * cols;
  ASSERT_EQ(static_cast<int>(r.geometry.tour.order().size()), n);
  EXPECT_EQ(r.geometry.crossings, 0);
  EXPECT_LE(r.geometry.tour.total_length(),
            tour_length(heuristic_tour(fp, oracle), fp));
}

INSTANTIATE_TEST_SUITE_P(Grids, BuilderGrid,
                         ::testing::Values(std::make_pair(2, 2),
                                           std::make_pair(2, 3),
                                           std::make_pair(3, 3),
                                           std::make_pair(2, 5),
                                           std::make_pair(3, 4),
                                           std::make_pair(4, 4)));

}  // namespace
}  // namespace xring::ring
