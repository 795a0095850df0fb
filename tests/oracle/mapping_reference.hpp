#pragma once

// Brute-force Step-3 reference implementations, kept as differential
// oracles for the indexed production engine (mapping/occupancy.hpp). They
// re-derive every arc from the tour on every probe, so they are slow and
// obviously correct; only the differential test suites link them.

#include "mapping/occupancy.hpp"
#include "mapping/wavelength.hpp"

namespace xring::mapping::reference {

/// True if the signal can be added to (waveguide, wavelength) without arc
/// overlap with same-wavelength signals and without passing the waveguide's
/// opening (when already fixed). OccupancyIndex::fits answers the same
/// predicate in O(n/64) instead of O(co-resident signals × path).
bool fits(const ring::Tour& tour, const netlist::Traffic& traffic,
          const Mapping& mapping, int waveguide, int wavelength,
          SignalId signal);

/// Word-level `fits`: the same predicate over the ArcTable's hop bitsets,
/// with the slot's occupancy rebuilt from the mapping's placements on every
/// call (every other signal on `waveguide` at `wavelength`, OR-ed mask by
/// mask) and every occupancy word scanned. OccupancyIndex::fits answers it
/// from its incrementally maintained bits and summaries.
bool fits_scan(const ArcTable& arcs, const Mapping& mapping, int waveguide,
               int wavelength, SignalId signal);

/// Number of signals on waveguide `w` whose arc passes *through* `node`.
/// OccupancyIndex::passing_count maintains the same count incrementally.
int passing_signals(const ring::Tour& tour, const netlist::Traffic& traffic,
                    const Mapping& mapping, int w, NodeId node);

/// The ORNoC wavelength assignment as a plain first-fit loop over `fits`:
/// per signal in traffic order, every waveguide of the shorter direction in
/// ascending index with λ = 0..#wl-1, then the same over the longer
/// direction, then a new waveguide of the shorter direction at λ 0.
/// mapping::ornoc_assignment must return exactly this Mapping.
Mapping ornoc_assignment(const ring::Tour& tour,
                         const netlist::Traffic& traffic,
                         int max_wavelengths);

}  // namespace xring::mapping::reference
