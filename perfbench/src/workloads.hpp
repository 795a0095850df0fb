#pragma once

// The benchmark's four workloads. One unit of work is one call of
// `Workload::run`; main.cpp runs units in a closed loop.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// How a unit calls the library.
enum class Path {
  /// Through the production entry points (Synthesizer::run,
  /// run_with_ring, make_sweep_cache), as `xring synth` and the table
  /// benches do. The timed end-to-end runs use this path.
  kEntry,
  /// Layer by layer through the public step functions, with a span around
  /// each call. The traced run uses this path and checks that it yields
  /// exactly the designs of kEntry.
  kComposed,
};

/// One synthesized design of a unit, reduced to what the benchmark reports
/// and compares.
struct DesignRecord {
  bool xring = false;  ///< XRing design (quality metrics) or a baseline
  std::uint64_t fingerprint = 0;  ///< tour, routes, openings and metrics
  double total_power_w = 0.0;
  double il_worst_db = 0.0;
  int noisy_signals = 0;
};

/// What one unit produced: its designs, solver statistics, and every output
/// check it failed.
struct UnitOutcome {
  std::vector<DesignRecord> designs;
  double ring_length_mm = 0.0;  ///< summed over the unit's rings
  std::vector<double> certified_gaps;  ///< one per Step-1 build
  long bnb_nodes = 0;
  long lazy_cuts = 0;
  long cutting_planes = 0;
  long early_stops = 0;  ///< Step-1 solves that stopped short of optimality
  long relocated_signals = 0;
  long extra_waveguides = 0;
  double sweep_setting_seconds = 0.0;  ///< Σ over #wl settings
  double sweep_wall_seconds = 0.0;     ///< Σ over sweep calls
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Units in one pass over the workload's inputs.
  virtual int units_per_pass() const = 0;

  /// Runs unit `index` (0 <= index < units_per_pass()).
  virtual UnitOutcome run(int index, Path path) const = 0;

  /// A small unit of the same flow, run during set-up so that code pages,
  /// the thread pool and allocator arenas are warm before timing.
  virtual UnitOutcome warm_up() const = 0;
};

inline const char* const kWorkloadNames[] = {
    "paper_tables", "irregular_corpus", "grid256_tight", "grid256_wide"};

/// Generates the workload's inputs: the irregular corpus from
/// `corpus_seed`, its pass order from `seed`. Throws on an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::uint64_t corpus_seed);

}  // namespace perfbench
