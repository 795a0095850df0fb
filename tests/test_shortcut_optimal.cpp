#include <gtest/gtest.h>

#include "oracle/shortcut_reference.hpp"
#include "ring/builder.hpp"
#include "shortcut/shortcut.hpp"

namespace xring::shortcut {
namespace {

using reference::optimal_shortcuts;

geom::Coord total_gain(const ShortcutPlan& plan) {
  geom::Coord sum = 0;
  for (const Shortcut& s : plan.shortcuts) sum += s.gain;
  return sum;
}

void expect_structurally_legal(const ShortcutPlan& plan,
                               const netlist::Floorplan& fp,
                               const ring::RingGeometry& ring,
                               const ShortcutOptions& opt) {
  std::vector<int> uses(fp.size(), 0);
  for (std::size_t i = 0; i < plan.shortcuts.size(); ++i) {
    const Shortcut& s = plan.shortcuts[i];
    uses[s.a]++;
    uses[s.b]++;
    const geom::LRoute chord(fp.position(s.a), fp.position(s.b), s.order);
    EXPECT_EQ(ring.polyline.crossings_with(chord), 0);
    if (s.crossing_partner >= 0) {
      EXPECT_EQ(plan.shortcuts[s.crossing_partner].crossing_partner,
                static_cast<int>(i));
      EXPECT_TRUE(s.crossing.has_value());
    }
  }
  for (const int u : uses) EXPECT_LE(u, opt.max_per_node);
}

TEST(OptimalShortcuts, NeverWorseThanGreedy) {
  for (const int n : {8, 16, 32}) {
    const auto fp = netlist::Floorplan::standard(n);
    const auto ring = ring::build_ring(fp).geometry;
    const ShortcutOptions opt;
    const ShortcutPlan greedy = build_shortcuts(ring, fp, opt);
    const ShortcutPlan ilp = optimal_shortcuts(ring, fp, opt);
    EXPECT_GE(total_gain(ilp), total_gain(greedy)) << n << " nodes";
    expect_structurally_legal(ilp, fp, ring, opt);
  }
}

TEST(OptimalShortcuts, MatchesGreedyOnEasyInstances) {
  // When no chords interact, greedy max-gain IS optimal.
  const auto fp = netlist::Floorplan::standard(8);
  const auto ring = ring::build_ring(fp).geometry;
  const ShortcutPlan greedy = build_shortcuts(ring, fp);
  const ShortcutPlan ilp = optimal_shortcuts(ring, fp);
  EXPECT_EQ(total_gain(greedy), total_gain(ilp));
}

TEST(OptimalShortcuts, HonoursPerNodeBudget) {
  const auto fp = netlist::Floorplan::standard(32);
  const auto ring = ring::build_ring(fp).geometry;
  for (const int cap : {1, 2}) {
    ShortcutOptions opt;
    opt.max_per_node = cap;
    const ShortcutPlan plan = optimal_shortcuts(ring, fp, opt);
    expect_structurally_legal(plan, fp, ring, opt);
  }
}

TEST(OptimalShortcuts, DisabledReturnsEmpty) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp).geometry;
  ShortcutOptions opt;
  opt.enable = false;
  EXPECT_TRUE(optimal_shortcuts(ring, fp, opt).shortcuts.empty());
}

TEST(OptimalShortcuts, CseRoutesDerivedForCrossingPairs) {
  const auto fp = netlist::Floorplan::ring_layout(3, 3, 1000);
  const auto ring = ring::build_ring(fp).geometry;
  const ShortcutPlan plan = optimal_shortcuts(ring, fp);
  int crossed = 0;
  for (const Shortcut& s : plan.shortcuts) {
    if (s.crossing_partner >= 0) ++crossed;
  }
  EXPECT_EQ(plan.cse_routes.size(), static_cast<std::size_t>(crossed / 2) * 8);
}

TEST(CollectCandidates, SortedByGainAndAllPositive) {
  const auto fp = netlist::Floorplan::standard(16);
  const auto ring = ring::build_ring(fp).geometry;
  const auto candidates = collect_candidates(ring, fp);
  EXPECT_FALSE(candidates.empty());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_GT(candidates[i].gain, 0);
    EXPECT_FALSE(candidates[i].feasible_orders.empty());
    if (i > 0) EXPECT_GE(candidates[i - 1].gain, candidates[i].gain);
  }
}

}  // namespace
}  // namespace xring::shortcut
