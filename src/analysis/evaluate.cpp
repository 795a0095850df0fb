#include "analysis/evaluate.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "phys/units.hpp"

namespace xring::analysis {

RouterMetrics evaluate(const RouterDesign& design) {
  return evaluate(design, EvalShared{});
}

RouterMetrics evaluate(const RouterDesign& design, const EvalShared& shared) {
  obs::Span span("analysis");
  const AnalysisContext ctx(design, shared.ring, shared.arcs);
  const int num_signals = design.traffic.size();

  RouterMetrics m;
  m.wavelengths = design.mapping.wavelengths_used;
  m.waveguides = static_cast<int>(design.mapping.waveguides.size());
  m.signals.resize(num_signals);

  // --- Losses -----------------------------------------------------------
  // The per-signal breakdowns are retained as the metrics' loss ledger: the
  // report layer renders them as waterfalls, and the explainability tests
  // hold them to the invariant total_db()/star_db() == il_db/il_star_db.
  std::vector<LossBreakdown>& losses = m.loss_ledger;
  losses.resize(num_signals);
  for (SignalId id = 0; id < num_signals; ++id) {
    losses[id] = signal_loss(ctx, id);
    SignalReport& r = m.signals[id];
    r.il_db = losses[id].total_db();
    r.il_star_db = losses[id].star_db();
    r.path_mm = losses[id].path_mm;
    r.crossings = losses[id].crossings;
    r.through_mrrs = losses[id].through_mrrs;
  }

  // --- Per-wavelength laser power ----------------------------------------
  const int wavelengths = std::max(1, design.mapping.wavelengths_used);
  std::vector<double> laser_mw(wavelengths, 0.0);
  for (SignalId id = 0; id < num_signals; ++id) {
    const int wl = design.mapping.routes[id].wavelength;
    if (wl < 0) continue;
    laser_mw[wl] =
        std::max(laser_mw[wl],
                 phys::laser_power_mw(m.signals[id].il_db,
                                      design.params.loss.receiver_sensitivity_dbm));
  }

  // --- Crosstalk ----------------------------------------------------------
  const std::vector<double> noise =
      compute_noise(ctx, losses, laser_mw, &m.xtalk_ledger);

  // --- Aggregation ---------------------------------------------------------
  int worst = -1;
  for (SignalId id = 0; id < num_signals; ++id) {
    SignalReport& r = m.signals[id];
    const int wl = design.mapping.routes[id].wavelength;
    r.signal_mw = wl >= 0 ? laser_mw[wl] * phys::db_to_linear(-r.il_db) : 0.0;
    r.noise_mw = noise[id];
    r.snr_db = r.noise_mw > design.params.crosstalk.noise_floor_mw
                   ? 10.0 * std::log10(r.signal_mw / r.noise_mw)
                   : kNoNoiseSnr;
    if (r.snr_db < design.params.crosstalk.snr_warn_db) {
      obs::diagnose(obs::Severity::kWarning, "analysis.snr_below_threshold",
                    "signal " + std::to_string(id) + " SNR " +
                        std::to_string(r.snr_db) + " dB below the " +
                        std::to_string(design.params.crosstalk.snr_warn_db) +
                        " dB threshold",
                    {{"signal", std::to_string(id)},
                     {"snr_db", std::to_string(r.snr_db)},
                     {"threshold_db",
                      std::to_string(design.params.crosstalk.snr_warn_db)}});
    }

    m.il_worst_db = std::max(m.il_worst_db, r.il_db);
    if (worst < 0 || r.il_star_db > m.signals[worst].il_star_db) worst = id;
    if (r.snr_db < kNoNoiseSnr) {
      ++m.noisy_signals;
      m.snr_worst_db = std::min(m.snr_worst_db, r.snr_db);
    }
  }
  if (worst >= 0) {
    m.il_star_worst_db = m.signals[worst].il_star_db;
    m.worst_path_mm = m.signals[worst].path_mm;
    m.worst_crossings = m.signals[worst].crossings;
  }

  double total_mw = 0.0;
  for (const double p : laser_mw) total_mw += p;
  m.total_power_w =
      total_mw / 1000.0 / design.params.loss.laser_wall_plug_efficiency;
  m.laser_mw = laser_mw;

  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("analysis.signals").add(num_signals);
    reg.counter("analysis.xtalk_rows").add(
        static_cast<long long>(m.xtalk_ledger.size()));
    if (shared.ring != nullptr) reg.counter("analysis.substrate_shared").add();
  }
  return m;
}

}  // namespace xring::analysis
