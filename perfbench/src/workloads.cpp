#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "baseline/oring.hpp"
#include "baseline/ornoc.hpp"
#include "crossbar/physical.hpp"
#include "inputs.hpp"
#include "netlist/io.hpp"
#include "spans.hpp"
#include "verify/drc.hpp"
#include "xring/sweep.hpp"

namespace perfbench {

using namespace xring;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

/// FNV-1a over the bytes of plain values.
class Fingerprint {
 public:
  template <class T>
  void add(const T& v) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &v, sizeof(T));
    for (unsigned char b : bytes) h_ = (h_ ^ b) * 1099511628211ULL;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t fingerprint(const SynthesisResult& r) {
  Fingerprint f;
  for (netlist::NodeId v : r.design.ring.tour.order()) f.add(v);
  for (const shortcut::Shortcut& s : r.design.shortcuts.shortcuts) {
    f.add(s.a);
    f.add(s.b);
  }
  for (const mapping::SignalRoute& route : r.design.mapping.routes) {
    f.add(static_cast<int>(route.kind));
    f.add(route.waveguide);
    f.add(route.wavelength);
    f.add(route.shortcut);
    f.add(route.cse);
  }
  for (const mapping::RingWaveguide& w : r.design.mapping.waveguides) {
    f.add(static_cast<int>(w.dir));
    f.add(w.opening);
  }
  const analysis::RouterMetrics& m = r.metrics;
  f.add(m.wavelengths);
  f.add(m.waveguides);
  f.add(m.il_worst_db);
  f.add(m.il_star_worst_db);
  f.add(m.worst_path_mm);
  f.add(m.worst_crossings);
  f.add(m.total_power_w);
  f.add(m.noisy_signals);
  f.add(m.snr_worst_db);
  return f.value();
}

bool finite_metrics(const analysis::RouterMetrics& m) {
  return std::isfinite(m.il_worst_db) && std::isfinite(m.il_star_worst_db) &&
         std::isfinite(m.worst_path_mm) && std::isfinite(m.total_power_w) &&
         std::isfinite(m.snr_worst_db) && m.total_power_w > 0.0;
}

/// The output checks of one design; failures go to `out.failures`. XRing
/// designs also run the design-rule check at the #wl cap they were
/// synthesized with.
void record(UnitOutcome& out, const std::string& label, bool xring,
            const SynthesisResult& r, int max_wavelengths) {
  const analysis::RouterDesign& d = r.design;
  const auto fail = [&](const std::string& why) {
    out.failures.push_back(label + ": " + why);
  };
  if (d.ring.tour.total_length() <= 0) fail("ring length is not positive");
  bool routed = d.mapping.routes.size() ==
                static_cast<std::size_t>(d.traffic.size());
  for (const mapping::SignalRoute& route : d.mapping.routes) {
    routed = routed && route.kind != mapping::RouteKind::kUnrouted;
  }
  if (!routed) fail("a signal has no route");
  if (!finite_metrics(r.metrics)) fail("a reported metric is not finite");
  if (xring) {
    verify::DrcOptions drc;
    drc.max_wavelengths = max_wavelengths;
    std::vector<verify::Violation> violations;
    {
      Span span("verify.drc");
      violations = verify::check(d, drc);
    }
    if (!violations.empty()) fail("DRC: " + verify::report(violations));
  }
  out.designs.push_back({xring, fingerprint(r), r.metrics.total_power_w,
                         r.metrics.il_worst_db, r.metrics.noisy_signals});
  out.relocated_signals += r.opening_stats.relocated_signals;
  out.extra_waveguides += r.opening_stats.extra_waveguides;
}

void record_ring(UnitOutcome& out, const ring::RingBuildResult& ring) {
  out.ring_length_mm += ring.geometry.tour.total_length() / 1000.0;
  out.certified_gaps.push_back(ring.certified_gap);
  out.bnb_nodes += ring.bnb_nodes;
  out.lazy_cuts += ring.lazy_cuts;
  out.cutting_planes += ring.cutting_planes;
  if (ring.mip_status != milp::MipStatus::kOptimal) ++out.early_stops;
}

/// Step 1 through the production path (the Synthesizer's lazy oracle) or
/// layer by layer (oracle constructor, then build_ring).
ring::RingBuildResult build_ring(const Synthesizer& synth, Path path,
                                 const ring::RingBuildOptions& options) {
  if (path == Path::kEntry) {
    return ring::build_ring(synth.floorplan(), synth.oracle(), options);
  }
  std::optional<ring::ConflictOracle> oracle;
  {
    Span span("ring.oracle");
    oracle.emplace(synth.floorplan());
  }
  Span span("ring.build");
  return ring::build_ring(synth.floorplan(), *oracle, options);
}

netlist::Traffic traffic_of(const netlist::Floorplan& fp,
                            const SynthesisOptions& options) {
  return options.traffic ? *options.traffic
                         : netlist::Traffic::all_to_all(fp.size());
}

/// Synthesizer::make_sweep_cache, one layer at a time.
SweepCache compose_cache(const netlist::Floorplan& fp,
                         const SynthesisOptions& options,
                         const ring::RingBuildResult& ring) {
  SweepCache cache;
  {
    Span span("shortcut.build");
    cache.shortcuts =
        shortcut::build_shortcuts(ring.geometry, fp, options.shortcuts);
  }
  const netlist::Traffic traffic = traffic_of(fp, options);
  {
    Span span("mapping.arc_table");
    cache.arcs = mapping::ArcTable(ring.geometry.tour, traffic);
  }
  {
    Span span("analysis.substrate");
    cache.substrate = analysis::RingSubstrate(ring.geometry, fp);
  }
  return cache;
}

/// Steps 2-4 and evaluation from a built ring, one layer at a time: the
/// calls the Synthesizer's entry points make, in the same order with the
/// same arguments.
SynthesisResult compose_from_ring(const netlist::Floorplan& fp,
                                  const SynthesisOptions& options,
                                  const ring::RingBuildResult& ring,
                                  const SweepCache* cache) {
  SynthesisResult out;
  out.ring_stats = ring;
  analysis::RouterDesign& d = out.design;
  d.floorplan = &fp;
  d.traffic = traffic_of(fp, options);
  d.ring = ring.geometry;
  d.params = options.params;
  if (cache != nullptr) {
    d.shortcuts = cache->shortcuts;
  } else {
    Span span("shortcut.build");
    d.shortcuts = shortcut::build_shortcuts(d.ring, fp, options.shortcuts);
  }
  const mapping::ArcTable* arcs = cache ? &cache->arcs : nullptr;
  {
    Span span("mapping.assign");
    d.mapping = mapping::assign_wavelengths(d.ring.tour, d.traffic,
                                            d.shortcuts, options.mapping, arcs);
  }
  {
    Span span("mapping.opening");
    out.opening_stats =
        mapping::create_openings(d.ring.tour, d.traffic, d.mapping,
                                 options.mapping, options.openings, arcs);
  }
  if (options.build_pdn) {
    Span span("pdn.tree");
    std::vector<bool> has_shortcut(fp.size(), false);
    for (const shortcut::Shortcut& s : d.shortcuts.shortcuts) {
      has_shortcut[s.a] = true;
      has_shortcut[s.b] = true;
    }
    d.pdn = pdn::tree_pdn(d.ring.tour, d.mapping, has_shortcut, d.params,
                          &d.traffic);
    d.has_pdn = true;
  }
  Span span("analysis.evaluate");
  out.metrics = cache ? analysis::evaluate(
                            d, analysis::EvalShared{&cache->substrate,
                                                    &cache->arcs})
                      : analysis::evaluate(d);
  return out;
}

/// xring::sweep, also summing each setting's own time and the sweep's wall
/// time into `out` (for xring.sweep_efficiency).
SweepResult timed_sweep(UnitOutcome& out, const SynthesisAtWl& at,
                        SweepGoal goal, int min_wl, int max_wl) {
  std::vector<double> setting(static_cast<std::size_t>(max_wl - min_wl + 1));
  const auto start = std::chrono::steady_clock::now();
  SweepResult r = sweep(
      [&](int wl) {
        const auto t = std::chrono::steady_clock::now();
        SynthesisResult s = at(wl);
        setting[static_cast<std::size_t>(wl - min_wl)] = seconds_since(t);
        return s;
      },
      goal, min_wl, max_wl);
  out.sweep_wall_seconds += seconds_since(start);
  for (double s : setting) out.sweep_setting_seconds += s;
  return r;
}

/// The shared Steps 2-4 of an XRing #wl sweep: one sweep cache, one
/// synthesis per setting, via the entry points or composed.
class XringAtWl {
 public:
  XringAtWl(const Synthesizer& synth, const SynthesisOptions& base,
            const ring::RingBuildResult& ring, Path path)
      : synth_(synth), base_(base), ring_(ring), path_(path) {
    cache_ = path == Path::kEntry
                 ? synth.make_sweep_cache(base, ring)
                 : compose_cache(synth.floorplan(), base, ring);
  }

  SynthesisResult operator()(int wl) const {
    SynthesisOptions o = base_;
    o.mapping.max_wavelengths = wl;
    return path_ == Path::kEntry
               ? synth_.run_with_ring(o, ring_, &cache_)
               : compose_from_ring(synth_.floorplan(), o, ring_, &cache_);
  }

 private:
  const Synthesizer& synth_;
  SynthesisOptions base_;
  const ring::RingBuildResult& ring_;
  Path path_;
  SweepCache cache_;
};

// ---------------------------------------------------------------- paper_tables

void crossbar_row(UnitOutcome& out, const std::string& label,
                  const crossbar::Topology& topo,
                  crossbar::SynthesisStyle style, const netlist::Floorplan& fp,
                  const phys::Parameters& params) {
  crossbar::CrossbarMetrics m;
  {
    Span span("crossbar.table1");
    m = crossbar::PhysicalSynthesis(topo, fp, style, params).evaluate();
  }
  if (!std::isfinite(m.il_worst_db) || !std::isfinite(m.worst_path_mm)) {
    out.failures.push_back(label + ": a reported metric is not finite");
  }
}

/// bench/table1_routers_no_pdn at `n` nodes.
void table1(UnitOutcome& out, int n, Path path) {
  const std::string tag = "table1.n" + std::to_string(n);
  const auto params = phys::Parameters::proton_plus();
  const auto fp = netlist::Floorplan::standard(n);
  const crossbar::LambdaRouter lambda(n);
  crossbar_row(out, tag + ".proton", lambda, crossbar::SynthesisStyle::kNaive,
               fp, params);
  crossbar_row(out, tag + ".planaronoc", lambda,
               crossbar::SynthesisStyle::kPlanarized, fp, params);
  if (n == 8) {
    crossbar_row(out, tag + ".topro", crossbar::Gwor(n),
                 crossbar::SynthesisStyle::kCompact, fp, params);
  } else {
    crossbar_row(out, tag + ".topro", crossbar::Light(n),
                 crossbar::SynthesisStyle::kCompact, fp, params);
  }

  Synthesizer synth(fp);
  const ring::RingBuildResult ring = build_ring(synth, path, {});
  record_ring(out, ring);
  const SweepResult ornoc = timed_sweep(
      out,
      [&](int wl) {
        baseline::OrnocOptions o;
        o.max_wavelengths = wl;
        o.with_pdn = false;
        o.params = params;
        Span span("baseline.ornoc");
        return baseline::synthesize_ornoc(fp, ring, o);
      },
      SweepGoal::kMinWorstLoss, n / 2, n);
  record(out, tag + ".ornoc", false, ornoc.result, ornoc.best_wl);
  const SweepResult oring = timed_sweep(
      out,
      [&](int wl) {
        baseline::OringOptions o;
        o.max_wavelengths = wl;
        o.with_pdn = false;
        o.params = params;
        Span span("baseline.oring");
        return baseline::synthesize_oring(fp, ring, o);
      },
      SweepGoal::kMinWorstLoss, n / 2, n);
  record(out, tag + ".oring", false, oring.result, oring.best_wl);

  SynthesisOptions base;
  base.build_pdn = false;
  base.openings.enable = false;
  base.params = params;
  const XringAtWl xring_at(synth, base, ring, path);
  const SweepResult xr =
      timed_sweep(out, std::cref(xring_at), SweepGoal::kMinWorstLoss, n / 2, n);
  record(out, tag + ".xring", true, xr.result, xr.best_wl);
}

const char* goal_name(SweepGoal goal) {
  return goal == SweepGoal::kMinPower ? "min_power" : "max_snr";
}

/// bench/table2_ornoc_vs_xring at `n` nodes.
void table2(UnitOutcome& out, int n, Path path) {
  const std::string tag = "table2.n" + std::to_string(n);
  const auto params = phys::Parameters::oring();
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  const ring::RingBuildResult ring = build_ring(synth, path, {});
  record_ring(out, ring);
  const auto ornoc_at = [&](int wl) {
    baseline::OrnocOptions o;
    o.max_wavelengths = wl;
    o.params = params;
    Span span("baseline.ornoc");
    return baseline::synthesize_ornoc(fp, ring, o);
  };
  SynthesisOptions base;
  base.params = params;
  const XringAtWl xring_at(synth, base, ring, path);
  for (const SweepGoal goal : {SweepGoal::kMinPower, SweepGoal::kMaxSnr}) {
    const std::string g = tag + "." + goal_name(goal);
    const SweepResult o = timed_sweep(out, ornoc_at, goal, n / 2, n);
    record(out, g + ".ornoc", false, o.result, o.best_wl);
    const SweepResult x = timed_sweep(out, std::cref(xring_at), goal, n / 2, n);
    record(out, g + ".xring", true, x.result, x.best_wl);
  }
}

/// bench/table3_oring_vs_xring (16 nodes).
void table3(UnitOutcome& out, Path path) {
  const int n = 16;
  const auto params = phys::Parameters::oring();
  const auto fp = netlist::Floorplan::standard(n);
  Synthesizer synth(fp);
  const ring::RingBuildResult ring = build_ring(synth, path, {});
  record_ring(out, ring);
  const auto oring_at = [&](int wl) {
    baseline::OringOptions o;
    o.max_wavelengths = wl;
    o.params = params;
    Span span("baseline.oring");
    return baseline::synthesize_oring(fp, ring, o);
  };
  SynthesisOptions base;
  base.params = params;
  const XringAtWl xring_at(synth, base, ring, path);
  for (const SweepGoal goal : {SweepGoal::kMinPower, SweepGoal::kMaxSnr}) {
    const std::string g = std::string("table3.n16.") + goal_name(goal);
    const SweepResult o = timed_sweep(out, oring_at, goal, n / 2, n);
    record(out, g + ".oring", false, o.result, o.best_wl);
    const SweepResult x = timed_sweep(out, std::cref(xring_at), goal, n / 2, n);
    record(out, g + ".xring", true, x.result, x.best_wl);
  }
}

/// Why: the paper's own evaluation (standard 8/16/32-node floorplans,
/// all-to-all traffic), so it reproduces the calls of the Table I-III
/// benches. The ORNoC baseline dominates it, and every #wl sweep and
/// evaluation runs once per setting; Step 1 closes at the root and opening
/// speculation is gated off at these sizes. One unit is one whole pass.
class PaperTables final : public Workload {
 public:
  int units_per_pass() const override { return 1; }

  UnitOutcome run(int, Path path) const override {
    UnitOutcome out;
    table1(out, 8, path);
    table1(out, 16, path);
    for (int n : {8, 16, 32}) table2(out, n, path);
    table3(out, path);
    return out;
  }

  UnitOutcome warm_up() const override {
    UnitOutcome out;
    table1(out, 8, Path::kEntry);
    table2(out, 8, Path::kEntry);
    table2(out, 16, Path::kEntry);
    return out;
  }
};

// ------------------------------------------------------------ irregular_corpus

/// One `xring synth --floorplan FILE` on an irregular floorplan (CLI
/// defaults: exact Step 1, #wl = n, all-to-all traffic, tree PDN), then the
/// design-rule check.
UnitOutcome synth_floorplan_text(const std::string& label,
                                 const std::string& text, Path path) {
  UnitOutcome out;
  netlist::Floorplan fp;
  {
    Span span("netlist.parse");
    std::istringstream in(text);
    fp = netlist::read_floorplan(in);
  }
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = fp.size();
  opt.traffic = netlist::Traffic::all_to_all(fp.size());
  const Synthesizer synth(fp);
  SynthesisResult r;
  if (path == Path::kEntry) {
    r = synth.run(opt);
  } else {
    const ring::RingBuildResult ring = build_ring(synth, path, opt.ring);
    r = compose_from_ring(fp, opt, ring, nullptr);
  }
  // Only a time-limit stop fails the unit; a stop on a node or LP iteration
  // limit still returns a legal ring with an honest certified gap and is
  // counted in ring.early_stops.
  if (r.ring_stats.mip_status != milp::MipStatus::kOptimal &&
      r.ring_stats.seconds >= opt.ring.time_limit_seconds) {
    out.failures.push_back(label + ": Step 1 stopped on its time limit");
  }
  record_ring(out, r.ring_stats);
  record(out, label, true, r, opt.mapping.max_wavelengths);
  return out;
}

/// Why: irregular floorplans are where Step 1 branches (1 to thousands of
/// B&B nodes), so the ring MILP, its conflict oracle, B&B speculation and
/// the ring-path default show here and nowhere else; Steps 2-4 are small.
/// The corpus is drawn from `corpus_seed`; the run's seed only shuffles the
/// order of a pass (README.md explains why the corpus stays fixed).
class IrregularCorpus final : public Workload {
 public:
  IrregularCorpus(std::uint64_t seed, std::uint64_t corpus_seed)
      : corpus_(irregular_corpus(corpus_seed, kCorpusInstances)),
        order_(shuffled_order(kCorpusInstances, seed)),
        corpus_seed_(corpus_seed) {}

  int units_per_pass() const override {
    return static_cast<int>(corpus_.size());
  }

  UnitOutcome run(int index, Path path) const override {
    const auto k = static_cast<std::size_t>(order_.at(index));
    return synth_floorplan_text(corpus_[k].name, corpus_[k].text, path);
  }

  UnitOutcome warm_up() const override {
    UnitOutcome out;
    for (int n : {16, 20, 24}) {
      std::ostringstream text;
      netlist::write_floorplan(irregular_floorplan(n, corpus_seed_), text);
      const UnitOutcome u = synth_floorplan_text(
          "warm_up.n" + std::to_string(n), text.str(), Path::kEntry);
      out.failures.insert(out.failures.end(), u.failures.begin(),
                          u.failures.end());
    }
    return out;
  }

 private:
  std::vector<CorpusInstance> corpus_;
  std::vector<int> order_;
  std::uint64_t corpus_seed_;
};

// ---------------------------------------------------------------- grid256_*

/// Steps 2-4 on a fixed serpentine ring of a grid with all-to-all traffic
/// at one #wl setting: make_sweep_cache + run_with_ring, then the DRC.
UnitOutcome synth_grid(const netlist::Floorplan& fp,
                       const ring::RingBuildResult& ring, int wl, Path path) {
  UnitOutcome out;
  const Synthesizer synth(fp);
  SynthesisOptions opt;
  opt.mapping.max_wavelengths = wl;
  SynthesisResult r;
  if (path == Path::kEntry) {
    const SweepCache cache = synth.make_sweep_cache(opt, ring);
    r = synth.run_with_ring(opt, ring, &cache);
  } else {
    const SweepCache cache = compose_cache(fp, opt, ring);
    r = compose_from_ring(fp, opt, ring, &cache);
  }
  out.ring_length_mm = ring.geometry.tour.total_length() / 1000.0;
  record(out, "grid" + std::to_string(fp.size()) + ".wl" + std::to_string(wl),
         true, r, wl);
  return out;
}

/// Why: Steps 2-4 at n = 256 (65 280 signals) with no Step 1. At #wl = 16
/// (the MappingOptions default) many short waveguides make the opening
/// phase nearly the whole unit; at #wl = 256 (= N, the top of the paper's
/// sweep range) a few long waveguides use it differently. A change to the
/// opening layer must show its effect on both.
class Grid256 final : public Workload {
 public:
  explicit Grid256(int wl)
      : wl_(wl),
        fp_(grid_floorplan(16, 16)),
        ring_(serpentine_ring(fp_, 16, 16)),
        small_fp_(grid_floorplan(8, 8)),
        small_ring_(serpentine_ring(small_fp_, 8, 8)) {}

  int units_per_pass() const override { return 1; }

  UnitOutcome run(int, Path path) const override {
    return synth_grid(fp_, ring_, wl_, path);
  }

  UnitOutcome warm_up() const override {
    return synth_grid(small_fp_, small_ring_, std::min(wl_, 64),
                      Path::kEntry);
  }

 private:
  int wl_;
  netlist::Floorplan fp_;
  ring::RingBuildResult ring_;
  netlist::Floorplan small_fp_;
  ring::RingBuildResult small_ring_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed,
                                        std::uint64_t corpus_seed) {
  if (name == "paper_tables") return std::make_unique<PaperTables>();
  if (name == "irregular_corpus") {
    return std::make_unique<IrregularCorpus>(seed, corpus_seed);
  }
  if (name == "grid256_tight") return std::make_unique<Grid256>(16);
  if (name == "grid256_wide") return std::make_unique<Grid256>(256);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
