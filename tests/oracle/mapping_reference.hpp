#pragma once

// Brute-force Step-3 reference implementations, kept as differential
// oracles for the indexed production engine (mapping/occupancy.hpp). They
// re-derive every arc from the tour on every probe, so they are slow and
// obviously correct; only the differential test suites link them.

#include "mapping/wavelength.hpp"

namespace xring::mapping::reference {

/// True if the signal can be added to (waveguide, wavelength) without arc
/// overlap with same-wavelength signals and without passing the waveguide's
/// opening (when already fixed). OccupancyIndex::fits answers the same
/// predicate in O(n/64) instead of O(co-resident signals × path).
bool fits(const ring::Tour& tour, const netlist::Traffic& traffic,
          const Mapping& mapping, int waveguide, int wavelength,
          SignalId signal);

/// The ORNoC wavelength assignment as a plain first-fit loop over `fits`:
/// per signal in traffic order, every waveguide of the shorter direction in
/// ascending index with λ = 0..#wl-1, then the same over the longer
/// direction, then a new waveguide of the shorter direction at λ 0.
/// mapping::ornoc_assignment must return exactly this Mapping.
Mapping ornoc_assignment(const ring::Tour& tour,
                         const netlist::Traffic& traffic,
                         int max_wavelengths);

}  // namespace xring::mapping::reference
