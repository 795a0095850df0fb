#pragma once

// Seeded inputs of the synthesis benchmark. Everything a workload feeds the
// library is generated here, from the benchmark's --seed only; the library
// never sees the seed.

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/floorplan.hpp"
#include "ring/builder.hpp"

namespace perfbench {

/// One irregular floorplan of the corpus, serialized in the plain-text
/// floorplan format so a unit parses it exactly as `xring synth --floorplan`
/// would read the file.
struct CorpusInstance {
  std::string name;
  int nodes = 0;
  std::string text;
};

/// Node counts of the irregular corpus, cycled over the instances. Why
/// these: at 32-48 nodes Step 1 branches on some draws and closes at the
/// root on others, and the slowest draw of the default corpus still solves
/// in a few seconds, so a whole pass fits in one run.
inline constexpr int kCorpusSizes[] = {32, 40, 48};

/// Instances per corpus: enough that the unit-time median moves little
/// when one instance gets slower, few enough that a pass (about 11 s on the
/// default corpus) fits in one run more than once.
inline constexpr int kCorpusInstances = 24;

/// The seeded irregular corpus: uniform-random distinct sites on a 12 x 12
/// grid at 1 mm pitch on a 13 mm die (the recurrence of
/// bench/irregular_layouts), node counts cycling through kCorpusSizes. A
/// different seed gives a fresh corpus of the same shape.
std::vector<CorpusInstance> irregular_corpus(std::uint64_t seed, int count);

/// A seeded permutation of 0..count-1.
std::vector<int> shuffled_order(int count, std::uint64_t seed);

/// A single irregular floorplan of `nodes` nodes drawn the same way.
xring::netlist::Floorplan irregular_floorplan(int nodes, std::uint64_t seed);

/// A `rows x cols` grid at 2 mm pitch (the scaling profile's floorplan).
xring::netlist::Floorplan grid_floorplan(int rows, int cols);

/// A fixed boustrophedon Hamiltonian cycle on a `rows x cols` grid with an
/// even row count: serpentine over columns 1..cols-1 row by row, then back
/// up column 0. Crossing-free, O(n) to build, and no solver runs, so the
/// grid workloads measure Steps 2-4 with no Step 1.
xring::ring::RingBuildResult serpentine_ring(
    const xring::netlist::Floorplan& floorplan, int rows, int cols);

}  // namespace perfbench
