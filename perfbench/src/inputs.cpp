#include "inputs.hpp"

#include <sstream>
#include <utility>
#include <stdexcept>

#include "netlist/io.hpp"

namespace perfbench {

using namespace xring;

namespace {

/// Deterministic LCG, the recurrence of bench/irregular_layouts.
class Lcg {
 public:
  explicit Lcg(std::uint64_t seed)
      : state_(seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 11;
  }

 private:
  std::uint64_t state_;
};

/// SplitMix64 finalizer: spreads (seed, instance) pairs over independent
/// LCG streams.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr int kSites = 12;               // sites per axis
constexpr geom::Coord kSitePitch = 1000;  // µm
constexpr geom::Coord kDie = 13000;       // µm

}  // namespace

netlist::Floorplan irregular_floorplan(int nodes, std::uint64_t seed) {
  if (nodes < 3 || nodes > kSites * kSites) {
    throw std::invalid_argument("irregular floorplan size out of range");
  }
  Lcg rng(seed);
  std::vector<bool> used(kSites * kSites, false);
  std::vector<netlist::Node> out;
  while (static_cast<int>(out.size()) < nodes) {
    const int x = static_cast<int>(rng.next() % kSites);
    const int y = static_cast<int>(rng.next() % kSites);
    if (used[y * kSites + x]) continue;
    used[y * kSites + x] = true;
    out.push_back({0, geom::Point{x * kSitePitch, y * kSitePitch}, ""});
  }
  return netlist::Floorplan(std::move(out), kDie, kDie);
}

std::vector<CorpusInstance> irregular_corpus(std::uint64_t seed, int count) {
  std::vector<CorpusInstance> corpus;
  constexpr int kSizeCount = sizeof(kCorpusSizes) / sizeof(kCorpusSizes[0]);
  for (int i = 0; i < count; ++i) {
    CorpusInstance inst;
    inst.nodes = kCorpusSizes[i % kSizeCount];
    const std::uint64_t stream = mix(mix(seed) + static_cast<std::uint64_t>(i));
    std::ostringstream text;
    netlist::write_floorplan(irregular_floorplan(inst.nodes, stream), text);
    inst.text = text.str();
    inst.name = "irr" + std::to_string(i) + ".n" + std::to_string(inst.nodes);
    corpus.push_back(std::move(inst));
  }
  return corpus;
}

std::vector<int> shuffled_order(int count, std::uint64_t seed) {
  std::vector<int> order;
  for (int i = 0; i < count; ++i) order.push_back(i);
  Lcg rng(mix(seed));
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }
  return order;
}

netlist::Floorplan grid_floorplan(int rows, int cols) {
  return netlist::Floorplan::grid(rows, cols, 2000);
}

ring::RingBuildResult serpentine_ring(const netlist::Floorplan& floorplan,
                                      int rows, int cols) {
  if (rows < 2 || cols < 2 || rows % 2 != 0 ||
      rows * cols != floorplan.size()) {
    throw std::invalid_argument("serpentine ring needs an even-row grid");
  }
  std::vector<netlist::NodeId> order;
  order.reserve(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    if (r % 2 == 0) {
      for (int c = 1; c < cols; ++c) order.push_back(r * cols + c);
    } else {
      for (int c = cols - 1; c >= 1; --c) order.push_back(r * cols + c);
    }
  }
  for (int r = rows - 1; r >= 0; --r) order.push_back(r * cols);
  ring::RingBuildResult out;
  out.geometry = ring::realize(ring::Tour(std::move(order), &floorplan),
                               floorplan);
  out.mip_status = milp::MipStatus::kNoSolution;  // no solver ran
  return out;
}

}  // namespace perfbench
