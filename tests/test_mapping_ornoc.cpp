// Differential test of the ORNoC wavelength assignment: the production
// mapping::ornoc_assignment (first-fit on the OccupancyIndex) against the
// brute-force first-fit over reference::fits (tests/oracle). The contract is
// BIT-IDENTICAL mappings — same route kinds, waveguides and wavelengths, the
// same signal order on every waveguide and the same #wl — so the ORNoC
// columns of Tables I and II cannot move when the engine changes.

#include "mapping/ornoc_assignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "oracle/mapping_reference.hpp"
#include "ring/builder.hpp"

namespace xring::mapping {
namespace {

void expect_same_mapping(const Mapping& a, const Mapping& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t i = 0; i < a.routes.size(); ++i) {
    EXPECT_EQ(a.routes[i].kind, b.routes[i].kind) << "signal " << i;
    EXPECT_EQ(a.routes[i].waveguide, b.routes[i].waveguide) << "signal " << i;
    EXPECT_EQ(a.routes[i].wavelength, b.routes[i].wavelength)
        << "signal " << i;
  }
  ASSERT_EQ(a.waveguides.size(), b.waveguides.size());
  for (std::size_t w = 0; w < a.waveguides.size(); ++w) {
    EXPECT_EQ(a.waveguides[w].dir, b.waveguides[w].dir) << "waveguide " << w;
    EXPECT_EQ(a.waveguides[w].opening, b.waveguides[w].opening)
        << "waveguide " << w;
    EXPECT_EQ(a.waveguides[w].signals, b.waveguides[w].signals)
        << "waveguide " << w;
  }
  EXPECT_EQ(a.cw_waveguides, b.cw_waveguides);
  EXPECT_EQ(a.ccw_waveguides, b.ccw_waveguides);
  EXPECT_EQ(a.wavelengths_used, b.wavelengths_used);
}

void expect_matches_reference(const ring::Tour& tour,
                              const netlist::Traffic& traffic, int wl) {
  SCOPED_TRACE("#wl " + std::to_string(wl));
  expect_same_mapping(ornoc_assignment(tour, traffic, wl),
                      reference::ornoc_assignment(tour, traffic, wl));
}

/// `nodes` distinct sites drawn uniformly from a 12 x 12 grid at 1 mm pitch
/// (the recurrence of bench/irregular_layouts), so hop lengths vary and the
/// cw/ccw arc-length ties of the regular floorplans mostly disappear.
netlist::Floorplan irregular(int nodes, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cell(0, 11);
  std::set<std::pair<int, int>> used;
  std::vector<netlist::Node> out;
  while (static_cast<int>(out.size()) < nodes) {
    const int x = cell(rng), y = cell(rng);
    if (!used.insert({x, y}).second) continue;
    out.push_back({0, geom::Point{static_cast<geom::Coord>(x) * 1000,
                                  static_cast<geom::Coord>(y) * 1000},
                   ""});
  }
  return netlist::Floorplan(std::move(out), 13000, 13000);
}

TEST(MappingOrnoc, StandardFloorplansAtEveryWavelengthCap) {
  for (const int n : {8, 16, 32}) {
    SCOPED_TRACE(n);
    const auto fp = netlist::Floorplan::standard(n);
    const ring::Tour tour = ring::build_ring(fp).geometry.tour;
    const auto traffic = netlist::Traffic::all_to_all(n);
    for (int wl = 1; wl <= n; ++wl) expect_matches_reference(tour, traffic, wl);
  }
}

TEST(MappingOrnoc, SeededIrregularFloorplans) {
  // Random tours over random sites: uneven hops, long arcs that only fit
  // the other direction, and many waveguides at small #wl.
  for (const auto& [n, seed] : std::vector<std::pair<int, unsigned>>{
           {16, 1}, {16, 2}, {24, 3}, {24, 4}, {32, 5}, {40, 6}}) {
    SCOPED_TRACE("n " + std::to_string(n) + " seed " + std::to_string(seed));
    const auto fp = irregular(n, seed);
    std::vector<netlist::NodeId> order(n);
    for (int i = 0; i < n; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(seed));
    const ring::Tour tour(order, &fp);
    const auto traffic = netlist::Traffic::all_to_all(n);
    for (const int wl : {std::max(1, n / 4), n / 2, n}) {
      expect_matches_reference(tour, traffic, wl);
    }
  }
}

}  // namespace
}  // namespace xring::mapping
