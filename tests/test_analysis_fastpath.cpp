// Differential testing of the indexed analysis engine against the verbatim
// pre-index reference (tests/oracle/analysis_reference.cpp): for every
// design family the fast path must reproduce the reference RouterMetrics byte for byte —
// EXPECT_EQ on doubles, no tolerance — because the index changes only which
// pairs get *visited*, never the arithmetic or its order. Also holds the
// crossbar's precomputed path() against path_reference() over all pairs.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "analysis/evaluate.hpp"
#include "analysis/substrate.hpp"
#include "baseline/ornoc.hpp"
#include "crossbar/physical.hpp"
#include "oracle/analysis_reference.hpp"
#include "ring/heuristic.hpp"
#include "xring/synthesizer.hpp"

namespace xring::analysis {
namespace {

void expect_metrics_equal(const RouterMetrics& a, const RouterMetrics& b) {
  EXPECT_EQ(a.wavelengths, b.wavelengths);
  EXPECT_EQ(a.waveguides, b.waveguides);
  EXPECT_EQ(a.il_worst_db, b.il_worst_db);
  EXPECT_EQ(a.il_star_worst_db, b.il_star_worst_db);
  EXPECT_EQ(a.worst_path_mm, b.worst_path_mm);
  EXPECT_EQ(a.worst_crossings, b.worst_crossings);
  EXPECT_EQ(a.total_power_w, b.total_power_w);
  EXPECT_EQ(a.noisy_signals, b.noisy_signals);
  EXPECT_EQ(a.snr_worst_db, b.snr_worst_db);
  EXPECT_EQ(a.laser_mw, b.laser_mw);

  ASSERT_EQ(a.signals.size(), b.signals.size());
  for (std::size_t i = 0; i < a.signals.size(); ++i) {
    const SignalReport& x = a.signals[i];
    const SignalReport& y = b.signals[i];
    EXPECT_EQ(x.il_db, y.il_db) << "signal " << i;
    EXPECT_EQ(x.il_star_db, y.il_star_db) << "signal " << i;
    EXPECT_EQ(x.path_mm, y.path_mm) << "signal " << i;
    EXPECT_EQ(x.crossings, y.crossings) << "signal " << i;
    EXPECT_EQ(x.through_mrrs, y.through_mrrs) << "signal " << i;
    EXPECT_EQ(x.noise_mw, y.noise_mw) << "signal " << i;
    EXPECT_EQ(x.signal_mw, y.signal_mw) << "signal " << i;
    EXPECT_EQ(x.snr_db, y.snr_db) << "signal " << i;
  }

  ASSERT_EQ(a.loss_ledger.size(), b.loss_ledger.size());
  for (std::size_t i = 0; i < a.loss_ledger.size(); ++i) {
    const LossBreakdown& x = a.loss_ledger[i];
    const LossBreakdown& y = b.loss_ledger[i];
    EXPECT_EQ(x.propagation_db, y.propagation_db) << "signal " << i;
    EXPECT_EQ(x.modulator_db, y.modulator_db) << "signal " << i;
    EXPECT_EQ(x.drop_db, y.drop_db) << "signal " << i;
    EXPECT_EQ(x.through_db, y.through_db) << "signal " << i;
    EXPECT_EQ(x.crossing_db, y.crossing_db) << "signal " << i;
    EXPECT_EQ(x.bend_db, y.bend_db) << "signal " << i;
    EXPECT_EQ(x.photodetector_db, y.photodetector_db) << "signal " << i;
    EXPECT_EQ(x.pdn_db, y.pdn_db) << "signal " << i;
    EXPECT_EQ(x.coupler_db, y.coupler_db) << "signal " << i;
    EXPECT_EQ(x.path_mm, y.path_mm) << "signal " << i;
    EXPECT_EQ(x.crossings, y.crossings) << "signal " << i;
    EXPECT_EQ(x.through_mrrs, y.through_mrrs) << "signal " << i;
    EXPECT_EQ(x.bends, y.bends) << "signal " << i;
  }

  // The attribution ledger must match row for row, in order: the replay
  // that builds it is part of the determinism contract.
  ASSERT_EQ(a.xtalk_ledger.size(), b.xtalk_ledger.size());
  for (std::size_t i = 0; i < a.xtalk_ledger.size(); ++i) {
    const XtalkContribution& x = a.xtalk_ledger[i];
    const XtalkContribution& y = b.xtalk_ledger[i];
    EXPECT_EQ(x.victim, y.victim) << "row " << i;
    EXPECT_EQ(x.aggressor, y.aggressor) << "row " << i;
    EXPECT_EQ(x.source, y.source) << "row " << i;
    EXPECT_EQ(x.node, y.node) << "row " << i;
    EXPECT_EQ(x.noise_mw, y.noise_mw) << "row " << i;
  }
}

void expect_fast_path_matches_reference(const RouterDesign& d) {
  expect_metrics_equal(evaluate(d), reference::evaluate_reference(d));
}

TEST(AnalysisFastPath, AllToAllMatchesReference) {
  for (const int n : {8, 16, 32}) {
    SCOPED_TRACE(n);
    const auto fp = netlist::Floorplan::standard(n);
    const Synthesizer synth(fp);
    const SynthesisResult r = synth.run();
    expect_fast_path_matches_reference(r.design);
    expect_metrics_equal(r.metrics, reference::evaluate_reference(r.design));
  }
}

TEST(AnalysisFastPath, SeededRandomTrafficMatchesReference) {
  const int n = 16;
  const auto fp = netlist::Floorplan::standard(n);
  const Synthesizer synth(fp);
  std::mt19937 rng(6021023);
  std::uniform_int_distribution<int> node(0, n - 1);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    std::vector<netlist::Signal> signals;
    for (netlist::SignalId id = 0; id < 40; ++id) {
      netlist::NodeId src = node(rng), dst = node(rng);
      while (dst == src) dst = node(rng);
      signals.push_back({id, src, dst});
    }
    SynthesisOptions opt;
    opt.traffic = netlist::Traffic(std::move(signals));
    const SynthesisResult r = synth.run(opt);
    expect_fast_path_matches_reference(r.design);
  }
}

TEST(AnalysisFastPath, CrossingRingAblationMatchesReference) {
  // A deliberately bad fixed tour whose realized geometry self-crosses,
  // exercising the kRingCrossing noise path the synthesized (crossing-free)
  // rings never reach.
  const auto fp = netlist::Floorplan::standard(16);
  const std::vector<netlist::NodeId> order = {0, 9, 2, 11, 4,  13, 6, 15,
                                              8, 1, 10, 3,  12, 5,  14, 7};
  ring::RingBuildResult ring;
  ring.geometry = ring::realize(ring::Tour(order, &fp), fp);
  ASSERT_GT(ring.geometry.crossings, 0);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run_with_ring({}, ring);
  expect_fast_path_matches_reference(r.design);
}

TEST(AnalysisFastPath, VariantConfigurationsMatchReference) {
  const auto fp = netlist::Floorplan::standard(16);
  const Synthesizer synth(fp);
  {
    SCOPED_TRACE("comb pdn");
    SynthesisOptions opt;
    opt.pdn_style = SynthesisOptions::PdnStyle::kComb;
    expect_fast_path_matches_reference(synth.run(opt).design);
  }
  {
    SCOPED_TRACE("no residue filter");
    SynthesisOptions opt;
    opt.params.crosstalk.residue_filter = false;
    expect_fast_path_matches_reference(synth.run(opt).design);
  }
  {
    SCOPED_TRACE("no pdn");
    SynthesisOptions opt;
    opt.build_pdn = false;
    expect_fast_path_matches_reference(synth.run(opt).design);
  }
}

/// `nodes` distinct sites drawn uniformly from a 12 x 12 grid at 1 mm pitch:
/// unequal hop lengths, unlike the standard floorplans' uniform pitch.
netlist::Floorplan irregular_floorplan(int nodes, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> cell(0, 11);
  std::vector<netlist::Node> out;
  std::vector<geom::Point> used;
  while (static_cast<int>(out.size()) < nodes) {
    const geom::Point p{static_cast<geom::Coord>(cell(rng)) * 1000,
                        static_cast<geom::Coord>(cell(rng)) * 1000};
    if (std::find(used.begin(), used.end(), p) != used.end()) continue;
    used.push_back(p);
    out.push_back({0, p, ""});
  }
  return netlist::Floorplan(std::move(out), 13000, 13000);
}

TEST(AnalysisFastPath, OrnocCombPdnMatchesReference) {
  // ORNoC's comb PDN taps every crossed waveguide, so these designs run one
  // noise walk per tap and wavelength — far more walks than any XRing
  // design — over many waveguides, some riding the long way around. The
  // irregular floorplan's unequal hops make a walk that charges the wrong
  // hop visible.
  const int n = 32;
  const auto standard = netlist::Floorplan::standard(n);
  const auto irregular = irregular_floorplan(n, 7);
  for (const netlist::Floorplan* fp : {&standard, &irregular}) {
    SCOPED_TRACE(fp == &standard ? "standard" : "irregular");
    const Synthesizer synth(*fp);
    ring::RingBuildResult ring;
    ring.geometry = ring::realize(
        ring::Tour(ring::heuristic_tour(*fp, synth.oracle()), fp), *fp);
    for (const int wl : {16, 32}) {
      SCOPED_TRACE(wl);
      baseline::OrnocOptions o;
      o.max_wavelengths = wl;
      const SynthesisResult r = baseline::synthesize_ornoc(*fp, ring, o);
      ASSERT_TRUE(r.design.has_pdn);
      ASSERT_FALSE(r.design.pdn.taps.empty());
      expect_fast_path_matches_reference(r.design);
    }
  }
}

TEST(AnalysisFastPath, SharedSubstrateMatchesLocal) {
  // evaluate() with a SweepCache-style shared substrate must be
  // bit-identical to evaluate() building its own locals.
  const auto fp = netlist::Floorplan::standard(16);
  const Synthesizer synth(fp);
  const SynthesisResult r = synth.run();
  const RouterDesign& d = r.design;
  const RingSubstrate substrate(d.ring, *d.floorplan);
  const mapping::ArcTable arcs(d.ring.tour, d.traffic);
  expect_metrics_equal(evaluate(d, EvalShared{&substrate, &arcs}),
                       evaluate(d));
}

TEST(AnalysisFastPath, CrossbarPathMatchesReference) {
  using crossbar::CrossbarPath;
  using crossbar::PhysicalSynthesis;
  using crossbar::SynthesisStyle;
  const int n = 16;
  const auto fp = netlist::Floorplan::standard(n);
  const auto params = phys::Parameters::proton_plus();
  const crossbar::LambdaRouter topo(n);
  for (const SynthesisStyle style :
       {SynthesisStyle::kNaive, SynthesisStyle::kPlanarized,
        SynthesisStyle::kCompact}) {
    SCOPED_TRACE(crossbar::to_string(style));
    const PhysicalSynthesis ps(topo, fp, style, params);
    for (crossbar::NodeId s = 0; s < n; ++s) {
      for (crossbar::NodeId d = 0; d < n; ++d) {
        if (s == d) continue;
        const CrossbarPath fast = ps.path(s, d);
        const CrossbarPath ref = ps.path_reference(s, d);
        EXPECT_EQ(fast.length_mm, ref.length_mm) << s << "->" << d;
        EXPECT_EQ(fast.crossings, ref.crossings) << s << "->" << d;
        EXPECT_EQ(fast.drops, ref.drops) << s << "->" << d;
        EXPECT_EQ(fast.throughs, ref.throughs) << s << "->" << d;
        EXPECT_EQ(fast.il_db, ref.il_db) << s << "->" << d;
      }
    }
  }
}

}  // namespace
}  // namespace xring::analysis
