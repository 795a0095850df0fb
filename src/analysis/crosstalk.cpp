#include "analysis/crosstalk.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "phys/units.hpp"

namespace xring::analysis {

namespace {

constexpr double kNegligibleMw = 1e-15;

/// Records noise deposits as provenance rows. Callers stamp the
/// aggressor/source/node fields before each walk. The rows are *the* result:
/// compute_noise folds them, in emission order, into both the per-victim
/// totals and the attribution ledger, so the two views are fed from the same
/// numbers (the sum invariant the explainability tests check).
struct NoiseSink {
  std::vector<XtalkContribution>& rows;
  SignalId aggressor = -1;
  XtalkSource source = XtalkSource::kPdnLeak;
  NodeId node = -1;

  void deposit(SignalId victim, double power_mw) {
    rows.push_back(XtalkContribution{victim, aggressor, source, node, power_mw});
  }
};

/// Attenuation factors of walk_ring_noise, per (ring waveguide, tour
/// position): `leave` for the hop the waveguide's light takes out of the
/// position, `node` for the position's off-resonance devices and PDN
/// crossings. Each entry is computed with the walk's own expression, so it
/// is the same double the walk would compute inline; a comb-PDN design runs
/// one walk per tap and wavelength, which would otherwise repeat these
/// `std::pow`s at every step.
struct WalkFactors {
  int nodes = 0;
  std::vector<double> leave;  ///< [waveguide * nodes + position]
  std::vector<double> node;   ///< [waveguide * nodes + position]
  double absorb = 0.0;        ///< matched drop-MRR + photodetector

  explicit WalkFactors(const AnalysisContext& ctx) {
    const RouterDesign& d = ctx.design();
    const phys::LossParams& lp = d.params.loss;
    const ring::Tour& tour = d.ring.tour;
    const DeviceIndex& dev = ctx.devices();
    const int rx_mrrs = d.params.crosstalk.residue_filter ? 2 : 1;
    nodes = tour.size();
    const std::size_t size = d.mapping.waveguides.size() * nodes;
    leave.resize(size);
    node.resize(size);
    for (int w = 0; w < static_cast<int>(d.mapping.waveguides.size()); ++w) {
      const bool cw = d.mapping.waveguides[w].dir == mapping::Direction::kCw;
      const double scale = d.ring_scale(w);
      for (int p = 0; p < nodes; ++p) {
        // For cw travel from position p the hop index is p; for ccw it is
        // p-1 (Tour::hop_length wraps it).
        const double hop_mm =
            tour.hop_length(cw ? p : p - 1) / 1000.0 * scale;
        leave[w * nodes + p] =
            phys::db_to_linear(-hop_mm * lp.propagation_db_per_mm);
        double node_db =
            (rx_mrrs * dev.receivers_at(w, p) + dev.senders_at(w, p)) *
            lp.through_db;
        if (d.has_pdn) node_db += dev.pdn_crossings_at(w, p) * lp.crossing_db;
        node[w * nodes + p] = phys::db_to_linear(-node_db);
      }
    }
    absorb = phys::db_to_linear(-(lp.drop_db + lp.photodetector_db));
  }
};

/// Walks noise injected on ring waveguide `w` at node `at`, travelling the
/// waveguide's transmission direction, until a wavelength-matched receiver
/// absorbs it, the opening terminates it, or a full lap decays it. All
/// per-node device lookups go through the context's DeviceIndex — O(1) per
/// node instead of a rescan of the waveguide's signal list — and the
/// attenuation factors come from WalkFactors, applied in the exact
/// operation order of the brute-force walk (the test oracle in
/// tests/oracle/analysis_reference.cpp).
void walk_ring_noise(const AnalysisContext& ctx, const WalkFactors& f, int w,
                     NodeId at, int wavelength, double power_mw,
                     NoiseSink& sink) {
  if (power_mw < kNegligibleMw) return;
  const RouterDesign& d = ctx.design();
  const mapping::RingWaveguide& wg = d.mapping.waveguides[w];
  const DeviceIndex& dev = ctx.devices();
  const int n = f.nodes;
  const int step = wg.dir == mapping::Direction::kCw ? 1 : n - 1;
  const double* leave = f.leave.data() + static_cast<std::size_t>(w) * n;
  const double* node = f.node.data() + static_cast<std::size_t>(w) * n;

  int p = ctx.arcs().position(at);
  for (int travelled = 0; travelled < n; ++travelled) {
    // Propagate over the hop to the next node.
    power_mw *= leave[p];
    p = (p + step) % n;
    if (power_mw < kNegligibleMw) return;

    // Receiver bank first: a matched drop-MRR absorbs the noise into its
    // photodetector.
    const SignalId receiver = dev.receiver_on(w, p, wavelength);
    if (receiver >= 0) {
      sink.deposit(receiver, power_mw * f.absorb);
      return;
    }
    // The opening cut sits between the receiver and sender banks.
    if (wg.opening == d.ring.tour.at(p)) return;
    // Attenuation by the node's off-resonance devices and PDN crossings.
    power_mw *= node[p];
  }
}

/// Power of signal `id` at the shortcut crossing point, given its laser.
double power_at_crossing(const RouterDesign& d,
                         const std::vector<double>& laser_mw, SignalId id,
                         const LossBreakdown& loss, double src_to_x_mm) {
  const int wl = d.mapping.routes[id].wavelength;
  const double before_db = loss.pdn_db + loss.coupler_db + loss.modulator_db +
                           src_to_x_mm * d.params.loss.propagation_db_per_mm;
  return laser_mw[wl] * phys::db_to_linear(-before_db);
}

/// Distance (mm) from `from` along shortcut `sc`'s chord to its crossing.
double chord_to_crossing_mm(const RouterDesign& d, int sc, NodeId from) {
  const shortcut::Shortcut& s = d.shortcuts.shortcuts[sc];
  if (!s.crossing) return 0.0;
  const geom::Point p = d.floorplan->position(from);
  const geom::LRoute route(p, d.floorplan->position(s.a == from ? s.b : s.a),
                           s.order);
  // Walk the L-route accumulating distance to the crossing point.
  geom::Coord travelled = 0;
  for (const geom::Segment& seg : route.segments()) {
    if (geom::contains(seg, *s.crossing)) {
      travelled += geom::manhattan(seg.a, *s.crossing);
      break;
    }
    travelled += seg.length();
  }
  return travelled / 1000.0;
}

/// Delivers noise travelling on shortcut `sc`'s waveguide toward `end` to a
/// matched receiver there, attenuated by the remaining chord propagation.
/// The first-matching-route lookup runs on the DeviceIndex's per-chord
/// table (ascending signal id — the scan order of the all-routes loop it
/// replaces).
void deliver_shortcut_noise(const AnalysisContext& ctx, int sc, NodeId end,
                            int wavelength, double power_mw, double travel_mm,
                            NoiseSink& sink) {
  if (power_mw < kNegligibleMw) return;
  const phys::LossParams& lp = ctx.design().params.loss;
  power_mw *= phys::db_to_linear(-travel_mm * lp.propagation_db_per_mm);
  const SignalId victim = ctx.devices().chord_receiver(sc, end, wavelength);
  if (victim < 0) return;
  // The matched drop-MRR absorbs the noise.
  sink.deposit(victim,
               power_mw * phys::db_to_linear(-(lp.drop_db + lp.photodetector_db)));
}

/// Rows from one comb-PDN crossing tap: every wavelength the laser emits
/// leaks a fraction of its continuous-wave power into the crossed waveguide.
void emit_pdn_tap(const AnalysisContext& ctx, const WalkFactors& factors,
                  const std::vector<double>& laser_mw,
                  const pdn::CrossingTap& tap,
                  std::vector<XtalkContribution>& rows) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const double kx = phys::db_to_linear(d.params.crosstalk.crossing_db);
  NoiseSink sink{rows};
  sink.aggressor = -1;
  sink.source = XtalkSource::kPdnLeak;
  sink.node = tap.node;
  for (int wl = 0; wl < static_cast<int>(laser_mw.size()); ++wl) {
    if (laser_mw[wl] <= 0.0) continue;
    const double leak = laser_mw[wl] *
                        phys::db_to_linear(-(tap.attenuation_db + lp.coupler_db)) *
                        kx;
    walk_ring_noise(ctx, factors, tap.waveguide, tap.node, wl, leak, sink);
  }
}

/// Rows from one aggressor signal (crossing leaks, CSE/receiver residue,
/// residual ring-geometry crossings).
void emit_signal(const AnalysisContext& ctx, const WalkFactors* factors,
                 const std::vector<LossBreakdown>& losses,
                 const std::vector<double>& laser_mw, std::size_t i,
                 std::vector<XtalkContribution>& rows) {
  const RouterDesign& d = ctx.design();
  const phys::LossParams& lp = d.params.loss;
  const phys::CrosstalkParams& xt = d.params.crosstalk;
  const ring::Tour& tour = d.ring.tour;
  const double kx = phys::db_to_linear(xt.crossing_db);
  const double kres = phys::db_to_linear(xt.mrr_drop_residue_db);
  NoiseSink sink{rows};

  {
    const SignalId id = static_cast<SignalId>(i);
    const mapping::SignalRoute& r = d.mapping.routes[i];
    const auto& sig = d.traffic.signal(id);

    // --- 2. Shortcut-pair crossing leaks -------------------------------
    if (r.kind == mapping::RouteKind::kShortcut) {
      const shortcut::Shortcut& sc = d.shortcuts.shortcuts[r.shortcut];
      if (sc.crossing_partner >= 0) {
        const double to_x_mm = chord_to_crossing_mm(d, r.shortcut, sig.src);
        const double p_at_x =
            power_at_crossing(d, laser_mw, id, losses[i], to_x_mm);
        const shortcut::Shortcut& partner =
            d.shortcuts.shortcuts[sc.crossing_partner];
        sink.aggressor = id;
        sink.source = XtalkSource::kShortcutCrossing;
        // The leak enters the partner chord and drifts toward both of its
        // ends; a matched receiver at either end catches it.
        for (const NodeId end : {partner.a, partner.b}) {
          sink.node = end;
          const double rest_mm =
              partner.length / 1000.0 -
              chord_to_crossing_mm(d, sc.crossing_partner, end);
          deliver_shortcut_noise(ctx, sc.crossing_partner, end, r.wavelength,
                                 p_at_x * kx, rest_mm, sink);
        }
      }
    }

    // --- 3. CSE drop residue --------------------------------------------
    // The fraction of a CSE-switched signal that fails to couple continues
    // straight along the inbound chord to its far end.
    if (r.kind == mapping::RouteKind::kCse) {
      const shortcut::CseRoute& cse = d.shortcuts.cse_routes[r.cse];
      const shortcut::Shortcut& in = d.shortcuts.shortcuts[cse.shortcut_in];
      const double to_x_mm = chord_to_crossing_mm(d, cse.shortcut_in, cse.src);
      const double p_at_x =
          power_at_crossing(d, laser_mw, id, losses[i], to_x_mm);
      const NodeId far_end = in.a == cse.src ? in.b : in.a;
      const double rest_mm = in.length / 1000.0 - to_x_mm;
      sink.aggressor = id;
      sink.source = XtalkSource::kCseResidue;
      sink.node = far_end;
      deliver_shortcut_noise(ctx, cse.shortcut_in, far_end, r.wavelength,
                             p_at_x * kres, rest_mm, sink);
    }

    // --- 3b. Receiver drop residue (only without the Fig. 5(b) filter) --
    // Without the extra MRR+terminator, the fraction of the signal that is
    // not coupled into its photodetector keeps travelling the waveguide and
    // becomes first-order noise for downstream same-wavelength receivers.
    if (!xt.residue_filter &&
        (r.kind == mapping::RouteKind::kRingCw ||
         r.kind == mapping::RouteKind::kRingCcw)) {
      const double at_receiver =
          laser_mw[r.wavelength] *
          phys::db_to_linear(-(losses[i].total_db() - lp.drop_db -
                               lp.photodetector_db));
      sink.aggressor = id;
      sink.source = XtalkSource::kReceiverResidue;
      sink.node = sig.dst;
      walk_ring_noise(ctx, *factors, r.waveguide, sig.dst, r.wavelength,
                      at_receiver * kres, sink);
    }

    // --- 4. Residual ring-geometry crossings ----------------------------
    // Only degraded constructions (Fig. 2(c) ablation) have them: a signal
    // passing such a crossing leaks onto another arc of its own waveguide.
    // Coupling-pair discovery runs on the arc table: one O(n/64) AND of the
    // signal's hop mask against the substrate's crossing-hop mask rules the
    // whole section out (the overwhelmingly common case), and surviving
    // signals walk only their arc's crossing hops via the sparse rows —
    // visiting exactly the (h, g) pairs the occupied_hops × tour.size()
    // reference loop visited, in the same order.
    if ((r.kind == mapping::RouteKind::kRingCw ||
         r.kind == mapping::RouteKind::kRingCcw) &&
        d.ring.crossings > 0) {
      const mapping::Direction dir = d.mapping.waveguides[r.waveguide].dir;
      const std::uint64_t* mine = ctx.arcs().mask(id, dir);
      const std::vector<std::uint64_t>& crossing_hops =
          ctx.ring().cross_hop_mask();
      bool overlaps = false;
      for (std::size_t k = 0; k < crossing_hops.size(); ++k) {
        if ((mine[k] & crossing_hops[k]) != 0) {
          overlaps = true;
          break;
        }
      }
      if (overlaps) {
        const mapping::ArcTable::Arc arc = ctx.arc(id, dir);
        const int n = tour.size();
        sink.aggressor = id;
        sink.source = XtalkSource::kRingCrossing;
        for (int t = 0; t < arc.len; ++t) {
          const int h = (arc.start + t) % n;
          if ((crossing_hops[h >> 6] >> (h & 63) & 1) == 0) continue;
          for (const auto& [g, crossings] : ctx.ring().cross_row(h)) {
            const double p =
                laser_mw[r.wavelength] *
                phys::db_to_linear(-losses[i].total_db() / 2.0);  // mid-path
            sink.node = tour.at(g);
            walk_ring_noise(ctx, *factors, r.waveguide, tour.at(g),
                            r.wavelength, p * kx * crossings, sink);
          }
        }
      }
    }
  }
}

}  // namespace

std::vector<double> compute_noise(const AnalysisContext& ctx,
                                  const std::vector<LossBreakdown>& losses,
                                  const std::vector<double>& laser_mw,
                                  std::vector<XtalkContribution>* attribution) {
  const RouterDesign& d = ctx.design();

  // One pass: every PDN crossing tap, then every aggressor signal, each
  // recording its deposits; the fold below sums them in emission order.
  // The walk factors are built only when some walk can run: comb-PDN taps,
  // receiver residue without the Fig. 5(b) filter, or residual ring
  // crossings. XRing's tree-PDN designs have none of these.
  const bool has_taps = d.has_pdn && !d.pdn.taps.empty();
  std::optional<WalkFactors> factors;
  if (has_taps || !d.params.crosstalk.residue_filter || d.ring.crossings > 0) {
    factors.emplace(ctx);
  }
  std::vector<XtalkContribution> rows;
  if (has_taps) {
    for (const auto& tap : d.pdn.taps) {
      emit_pdn_tap(ctx, *factors, laser_mw, tap, rows);
    }
  }
  const WalkFactors* walk = factors ? &*factors : nullptr;
  for (std::size_t i = 0; i < d.mapping.routes.size(); ++i) {
    emit_signal(ctx, walk, losses, laser_mw, i, rows);
  }

  std::vector<double> noise(d.traffic.size(), 0.0);
  if (attribution != nullptr) {
    attribution->reserve(attribution->size() + rows.size());
  }
  for (const XtalkContribution& row : rows) {
    noise[row.victim] += row.noise_mw;
    if (attribution != nullptr) attribution->push_back(row);
  }
  return noise;
}

}  // namespace xring::analysis
