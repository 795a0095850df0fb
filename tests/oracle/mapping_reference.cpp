#include "oracle/mapping_reference.hpp"

#include <algorithm>
#include <cstdint>

namespace xring::mapping::reference {

bool fits(const ring::Tour& tour, const netlist::Traffic& traffic,
          const Mapping& mapping, int waveguide, int wavelength,
          SignalId signal) {
  const RingWaveguide& w = mapping.waveguides[waveguide];
  const auto& sig = traffic.signal(signal);

  // An already-fixed opening must not lie inside the signal's arc.
  if (w.opening != -1) {
    for (const NodeId v : interior_nodes(tour, sig.src, sig.dst, w.dir)) {
      if (v == w.opening) return false;
    }
  }

  const std::vector<int> mine = occupied_hops(tour, sig.src, sig.dst, w.dir);
  std::vector<bool> covered(tour.size(), false);
  for (const int h : mine) covered[h] = true;

  for (const SignalId other : w.signals) {
    if (other == signal) continue;
    if (mapping.routes[other].wavelength != wavelength) continue;
    const auto& o = traffic.signal(other);
    for (const int h : occupied_hops(tour, o.src, o.dst, w.dir)) {
      if (covered[h]) return false;
    }
  }
  return true;
}

bool fits_scan(const ArcTable& arcs, const Mapping& mapping, int waveguide,
               int wavelength, SignalId signal) {
  const RingWaveguide& w = mapping.waveguides[waveguide];
  if (w.opening != -1 &&
      arcs.interior_contains(signal, w.dir, arcs.position(w.opening))) {
    return false;
  }
  std::vector<std::uint64_t> slot(arcs.words(), 0);
  for (const SignalId other : w.signals) {
    if (other == signal) continue;
    if (mapping.routes[other].wavelength != wavelength) continue;
    const std::uint64_t* theirs = arcs.mask(other, w.dir);
    for (int k = 0; k < arcs.words(); ++k) slot[k] |= theirs[k];
  }
  const std::uint64_t* mine = arcs.mask(signal, w.dir);
  for (int k = 0; k < arcs.words(); ++k) {
    if ((slot[k] & mine[k]) != 0) return false;
  }
  return true;
}

int passing_signals(const ring::Tour& tour, const netlist::Traffic& traffic,
                    const Mapping& mapping, int w, NodeId node) {
  int count = 0;
  const RingWaveguide& wg = mapping.waveguides[w];
  for (const SignalId id : wg.signals) {
    const auto& sig = traffic.signal(id);
    for (const NodeId v : interior_nodes(tour, sig.src, sig.dst, wg.dir)) {
      if (v == node) {
        ++count;
        break;
      }
    }
  }
  return count;
}

Mapping ornoc_assignment(const ring::Tour& tour,
                         const netlist::Traffic& traffic,
                         int max_wavelengths) {
  Mapping m;
  m.routes.assign(traffic.size(), SignalRoute{});

  for (const auto& sig : traffic.signals()) {
    const geom::Coord cw = tour.arc_length_cw(sig.src, sig.dst);
    const geom::Coord ccw = tour.arc_length_ccw(sig.src, sig.dst);
    const Direction shorter = cw <= ccw ? Direction::kCw : Direction::kCcw;
    const Direction longer =
        shorter == Direction::kCw ? Direction::kCcw : Direction::kCw;

    int chosen_w = -1, chosen_wl = -1;
    Direction chosen_dir = shorter;
    for (const Direction dir : {shorter, longer}) {
      for (int w = 0; w < static_cast<int>(m.waveguides.size()) && chosen_w < 0;
           ++w) {
        if (m.waveguides[w].dir != dir) continue;
        // `fits` checks overlap for the direction of waveguide w, so the
        // signal's occupied arc follows that waveguide's direction.
        for (int wl = 0; wl < max_wavelengths; ++wl) {
          if (fits(tour, traffic, m, w, wl, sig.id)) {
            chosen_w = w;
            chosen_wl = wl;
            chosen_dir = dir;
            break;
          }
        }
      }
      if (chosen_w >= 0) break;
    }
    if (chosen_w < 0) {
      chosen_w = m.add_waveguide(shorter);
      chosen_wl = 0;
      chosen_dir = shorter;
    }

    SignalRoute& r = m.routes[sig.id];
    r.kind = chosen_dir == Direction::kCw ? RouteKind::kRingCw
                                          : RouteKind::kRingCcw;
    r.waveguide = chosen_w;
    r.wavelength = chosen_wl;
    m.waveguides[chosen_w].signals.push_back(sig.id);
  }

  int max_wl = -1;
  for (const SignalRoute& r : m.routes) max_wl = std::max(max_wl, r.wavelength);
  m.wavelengths_used = max_wl + 1;
  return m;
}

}  // namespace xring::mapping::reference
