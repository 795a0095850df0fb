#include "xring/sweep.hpp"

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "par/pool.hpp"

namespace xring {

namespace {

/// Lexicographic goodness: primary goal first, then the others as sane
/// tie-breakers.
bool better(SweepGoal goal, const analysis::RouterMetrics& a,
            const analysis::RouterMetrics& b) {
  switch (goal) {
    case SweepGoal::kMinPower:
      if (a.total_power_w != b.total_power_w) {
        return a.total_power_w < b.total_power_w;
      }
      return a.snr_worst_db > b.snr_worst_db;
    case SweepGoal::kMaxSnr:
      if (a.snr_worst_db != b.snr_worst_db) {
        return a.snr_worst_db > b.snr_worst_db;
      }
      return a.total_power_w < b.total_power_w;
    case SweepGoal::kMinWorstLoss:
      if (a.il_star_worst_db != b.il_star_worst_db) {
        return a.il_star_worst_db < b.il_star_worst_db;
      }
      return a.total_power_w < b.total_power_w;
  }
  return false;
}

void check_min_wl(int min_wl) {
  if (min_wl < 1) {
    throw std::invalid_argument("sweep: min_wl must be at least 1, got " +
                                std::to_string(min_wl));
  }
}

}  // namespace

SweepResult sweep(const SynthesisAtWl& synthesize, SweepGoal goal, int min_wl,
                  int max_wl) {
  check_min_wl(min_wl);
  obs::Span span("sweep");
  SweepResult out;
  if (max_wl < min_wl) return out;

  // Evaluate every setting concurrently, then reduce serially in ascending
  // #wl order — the exact loop the serial sweep ran, over the exact results
  // it would have produced, so the winner (and every tie-break toward the
  // smaller #wl) is identical at any thread count.
  const int count = max_wl - min_wl + 1;
  std::vector<std::optional<SynthesisResult>> results(
      static_cast<std::size_t>(count));
  par::parallel_for(par::global_pool(), 0, count, [&](long i) {
    results[static_cast<std::size_t>(i)] = synthesize(min_wl + static_cast<int>(i));
  });

  bool have = false;
  for (int i = 0; i < count; ++i) {
    if (!results[static_cast<std::size_t>(i)].has_value()) {
      // A setting produced no result (the synthesize callback defaulted or
      // threw into a swallowing wrapper); skip it rather than dereference
      // an empty optional.
      obs::diagnose(obs::Severity::kWarning, "sweep.missing_result",
                    "sweep setting produced no result; skipped",
                    {{"wavelengths", std::to_string(min_wl + i)}});
      continue;
    }
    SynthesisResult& r = *results[static_cast<std::size_t>(i)];
    out.seconds += r.seconds;
    ++out.settings_tried;
    if (!have || better(goal, r.metrics, out.result.metrics)) {
      have = true;
      out.best_wl = min_wl + i;
      out.result = std::move(r);
    }
  }
  if (have) mapping::record_gauges(out.result.design.mapping);
  out.wall_seconds = span.elapsed_seconds();
  return out;
}

SweepResult sweep_xring(const Synthesizer& synthesizer,
                        const SynthesisOptions& base, SweepGoal goal,
                        int min_wl, int max_wl) {
  check_min_wl(min_wl);
  obs::Span span("sweep_xring");
  const ring::RingBuildResult ring =
      ring::build_ring(synthesizer.floorplan(), synthesizer.oracle(), base.ring);
  // The shortcut plan and the mapping arc table depend on the ring and the
  // base options but not on #wl: build them once and share them (read-only)
  // across every concurrently-evaluated setting.
  const SweepCache cache = synthesizer.make_sweep_cache(base, ring);
  SweepResult out = sweep(
      [&](int wl) {
        SynthesisOptions opt = base;
        opt.mapping.max_wavelengths = wl;
        return synthesizer.run_with_ring(opt, ring, &cache);
      },
      goal, min_wl, max_wl);
  // Wall clock of the whole call, shared ring construction included (the
  // per-setting `seconds` fold it in as if each setting had built it).
  out.wall_seconds = span.elapsed_seconds();
  return out;
}

}  // namespace xring
