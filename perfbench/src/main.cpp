// The XRing synthesis benchmark.
//
//   xring_perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//                   [--corpus-seed C] [--jobs J] [--git-hash H]
//                   [--source-digest D]
//
// --trace 0 runs the workload's units in a closed loop (the next unit starts
// when the previous one returns) for S seconds through the production entry
// points and prints the end-to-end metrics. --trace 1 runs one pass through
// the entry points untraced, then one traced pass composed layer by layer at
// --jobs and another at jobs = 1, and prints the per-layer metrics. Every
// unit's outputs are checked; the last stdout line is one JSON object with
// the keys correct, attempted, failed and metrics. See README.md.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "par/pool.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t corpus_seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int jobs = 0;
  std::string git_hash = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.jobs = xring::par::hardware_jobs();
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--corpus-seed") {
      a.corpus_seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value) != 0;
    } else if (key == "--jobs") {
      a.jobs = std::stoi(value);
    } else if (key == "--git-hash") {
      a.git_hash = value;
    } else if (key == "--source-digest") {
      a.source_digest = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.jobs < 1 || !(a.seconds > 0.0)) {
    throw std::invalid_argument("--jobs and --seconds must be positive");
  }
  return a;
}

// ------------------------------------------------------------------ machine

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

/// Peak resident set (VmHWM) of this process, in MiB.
double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Restarts the VmHWM peak at the current RSS, so each workload of an `all`
/// run reports its own peak. Best effort: where the kernel refuses, the
/// peak stays process-wide.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

// ------------------------------------------------------------------ results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // failures and flags, for the report
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// Counts a unit as attempted, and as failed when any check broke.
void tally(Result& res, const UnitOutcome& u) {
  ++res.attempted;
  if (u.failures.empty()) return;
  ++res.failed;
  for (const std::string& f : u.failures) res.notes.push_back("FAIL " + f);
}

/// One pass over a workload's units.
struct Pass {
  std::vector<UnitOutcome> units;
  std::vector<double> seconds;
};

Pass run_pass(const Workload& w, Path path) {
  Pass p;
  for (int i = 0; i < w.units_per_pass(); ++i) {
    const auto t = Clock::now();
    p.units.push_back(w.run(i, path));
    p.seconds.push_back(seconds_since(t));
  }
  return p;
}

/// Fails `res` (one failed unit per mismatching unit) unless both passes
/// produced exactly the same designs.
void expect_same_designs(Result& res, const Pass& a, const Pass& b,
                         const std::string& what) {
  for (std::size_t i = 0; i < a.units.size(); ++i) {
    const auto& da = a.units[i].designs;
    const auto& db = b.units[i].designs;
    bool same = da.size() == db.size();
    for (std::size_t k = 0; same && k < da.size(); ++k) {
      same = da[k].fingerprint == db[k].fingerprint;
    }
    if (!same) {
      ++res.failed;
      res.notes.push_back("FAIL " + what + ": unit " + std::to_string(i) +
                          " produced a different design");
    }
  }
}

/// Design-quality metrics of one pass: lower is better for all of them. The
/// noisy-signal count and the certified gap are often exactly 0, so they
/// are per-layer metrics of the traced run instead.
void add_quality(Result& res, const Pass& p) {
  double log_power = 0.0, il = 0.0, ring = 0.0;
  int designs = 0;
  for (const UnitOutcome& u : p.units) {
    ring += u.ring_length_mm;
    for (const DesignRecord& d : u.designs) {
      if (!d.xring) continue;
      log_power += std::log(d.total_power_w);
      il += d.il_worst_db;
      ++designs;
    }
  }
  const double n = std::max(designs, 1);
  res.metrics.push_back({"laser_power_w", std::exp(log_power / n), "W"});
  res.metrics.push_back({"il_worst_db", il / n, "dB"});
  res.metrics.push_back({"ring_length_mm", ring, "mm"});
}

// ------------------------------------------------------------------ set-up

struct Setup {
  std::unique_ptr<Workload> workload;
  double seconds = 0.0;  // median over the repetitions
};

/// Set-up is everything before the first timed unit: input generation, a
/// warm-up unit and thread-pool start-up. It runs kSetupReps times and
/// reports the median, which one slow repetition cannot move. The warm-up
/// runs at jobs = 1: parallel work on a shared host swings with contention
/// far more than serial work, and set-up time should move only when set-up
/// work does.
Setup set_up(const Args& args, Result& res) {
  constexpr int kSetupReps = 9;
  Setup s;
  std::vector<double> reps;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t = Clock::now();
    s.workload = make_workload(args.workload, args.seed, args.corpus_seed);
    xring::par::set_jobs(1);  // tear the pool down ...
    const UnitOutcome warm = s.workload->warm_up();
    xring::par::set_jobs(args.jobs);  // ... and start it afresh
    reps.push_back(seconds_since(t));
    tally(res, warm);
  }
  s.seconds = median(reps);
  return s;
}

// ------------------------------------------------------------------ trace 0

Result run_timed(const Args& args) {
  Result res;
  const Setup setup = set_up(args, res);
  const Workload& w = *setup.workload;

  // Whole passes until the time is up: every input weighs the same in the
  // timings, and the first pass is the reference for every later one.
  std::vector<double> unit_seconds;
  std::vector<Pass> passes;
  const auto start = Clock::now();
  do {
    passes.push_back(run_pass(w, Path::kEntry));
    for (const UnitOutcome& u : passes.back().units) tally(res, u);
    unit_seconds.insert(unit_seconds.end(), passes.back().seconds.begin(),
                        passes.back().seconds.end());
    if (passes.size() > 1) {
      expect_same_designs(res, passes.front(), passes.back(),
                          "repeat determinism");
    }
  } while (seconds_since(start) < args.seconds);
  const double wall = seconds_since(start);

  res.metrics.push_back({"setup_s", setup.seconds, "s"});
  res.metrics.push_back({"synth_p50_s", median(unit_seconds), "s"});
  res.metrics.push_back(
      {"synth_per_s", static_cast<double>(unit_seconds.size()) / wall, "1/s"});
  res.metrics.push_back({"peak_rss_mib", peak_rss_mib(), "MiB"});
  add_quality(res, passes.front());
  res.notes.push_back("units " + std::to_string(unit_seconds.size()) +
                      " in " + std::to_string(passes.size()) + " pass(es)");
  return res;
}

// ------------------------------------------------------------------ trace 1

constexpr const char* kLayers[] = {
    "netlist.parse",     "ring.oracle",      "ring.build",
    "shortcut.build",    "mapping.arc_table", "analysis.substrate",
    "mapping.assign",    "mapping.opening",  "pdn.tree",
    "analysis.evaluate", "verify.drc",       "baseline.ornoc",
    "baseline.oring",    "crossbar.table1"};

/// Traced passes per job count. Their spread is the run-to-run noise a
/// layer's jobs = N vs jobs = 1 ratio must exceed to be flagged.
constexpr int kTracedRepeats = 2;

/// A layer loses from parallelism when its median time at jobs = N exceeds
/// its median time at jobs = 1 by a factor of at least kParFloor and by more
/// than twice its own repeat spread. Layers under kFlagFloorSeconds per unit
/// at jobs = 1 are too short to judge.
constexpr double kParFloor = 1.5;
constexpr double kFlagFloorSeconds = 0.01;

struct TracedPass {
  Pass pass;
  std::map<std::string, double> layer_seconds;  // per unit
  std::map<std::string, long long> counters;
};

TracedPass run_traced(const Workload& w, int jobs) {
  xring::par::set_jobs(jobs);
  xring::obs::Registry reg;
  xring::obs::Registry* prev = xring::obs::swap_registry(&reg);
  xring::obs::set_enabled(true);
  Trace trace;
  install(&trace);
  TracedPass t;
  t.pass = run_pass(w, Path::kComposed);
  install(nullptr);
  xring::obs::set_enabled(false);
  xring::obs::swap_registry(prev);
  const double units = w.units_per_pass();
  for (const auto& [layer, s] : trace.layer_seconds()) {
    t.layer_seconds[layer] = s / units;
  }
  t.counters = reg.counters();
  return t;
}

/// Median and relative spread ((max - min) / median) of one layer's time
/// over repeated traced passes.
struct LayerTime {
  double median = 0.0;
  double spread = 0.0;
};

LayerTime layer_time(const std::vector<TracedPass>& passes,
                     const std::string& layer) {
  std::vector<double> v;
  for (const TracedPass& t : passes) {
    const auto it = t.layer_seconds.find(layer);
    v.push_back(it == t.layer_seconds.end() ? 0.0 : it->second);
  }
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  LayerTime out;
  out.median = median(v);
  out.spread = out.median > 0.0 ? (*hi - *lo) / out.median : 0.0;
  return out;
}

Result run_layers(const Args& args) {
  Result res;
  const Setup setup = set_up(args, res);
  const Workload& w = *setup.workload;

  // The first full-size pass pays one-time costs (first touch of the large
  // working set) that the small warm-up does not; it is checked, not timed.
  const Pass cold = run_pass(w, Path::kEntry);
  const Pass entry = run_pass(w, Path::kEntry);
  std::vector<TracedPass> tn, t1;
  for (int r = 0; r < kTracedRepeats; ++r) {
    tn.push_back(run_traced(w, args.jobs));
    t1.push_back(run_traced(w, 1));
  }
  xring::par::set_jobs(args.jobs);
  for (const Pass* p : {&cold, &entry}) {
    for (const UnitOutcome& u : p->units) tally(res, u);
  }
  expect_same_designs(res, cold, entry, "repeat determinism");
  for (int r = 0; r < kTracedRepeats; ++r) {
    for (const UnitOutcome& u : tn[r].pass.units) tally(res, u);
    for (const UnitOutcome& u : t1[r].pass.units) tally(res, u);
    expect_same_designs(res, entry, tn[r].pass, "composed vs entry point");
    expect_same_designs(res, tn[r].pass, t1[r].pass, "jobs 1 vs jobs N");
  }

  for (const char* layer : kLayers) {
    const LayerTime ln = layer_time(tn, layer), l1 = layer_time(t1, layer);
    const double ratio = l1.median > 0.0 ? ln.median / l1.median : 0.0;
    res.metrics.push_back({std::string(layer) + "_s", ln.median, "s"});
    res.metrics.push_back({std::string(layer) + "_s_j1", l1.median, "s"});
    res.metrics.push_back({std::string(layer) + "_par_ratio", ratio, "ratio"});
    const double noise = std::max(ln.spread, l1.spread);
    if (ratio > std::max(kParFloor, 1.0 + 2.0 * noise) &&
        l1.median >= kFlagFloorSeconds) {
      res.notes.push_back(
          "FLAG " + std::string(layer) + " loses from parallelism: " +
          std::to_string(ln.median) + " s at jobs " +
          std::to_string(args.jobs) + " vs " + std::to_string(l1.median) +
          " s at jobs 1 (x" + std::to_string(ratio) + ", repeat spread " +
          std::to_string(noise) + ")");
    }
  }

  const double units = w.units_per_pass();
  long long bnb = 0, lazy = 0, planes = 0, early = 0, reloc = 0, extra = 0;
  long long noisy = 0;
  double setting = 0.0, wall = 0.0;
  std::vector<double> gaps;
  for (const UnitOutcome& u : tn.front().pass.units) {
    bnb += u.bnb_nodes;
    lazy += u.lazy_cuts;
    planes += u.cutting_planes;
    early += u.early_stops;
    reloc += u.relocated_signals;
    extra += u.extra_waveguides;
    setting += u.sweep_setting_seconds;
    wall += u.sweep_wall_seconds;
    gaps.insert(gaps.end(), u.certified_gaps.begin(), u.certified_gaps.end());
    for (const DesignRecord& d : u.designs) {
      if (d.xring) noisy += d.noisy_signals;
    }
  }
  const auto per_unit = [&](const char* name, double total) {
    res.metrics.push_back({name, total / units, "count"});
  };
  per_unit("ring.bnb_nodes", static_cast<double>(bnb));
  per_unit("ring.lazy_cuts", static_cast<double>(lazy));
  per_unit("ring.cutting_planes", static_cast<double>(planes));
  per_unit("ring.early_stops", static_cast<double>(early));
  res.metrics.push_back({"ring.certified_gap", mean(gaps), "ratio"});
  per_unit("mapping.relocated_signals", static_cast<double>(reloc));
  per_unit("mapping.extra_waveguides", static_cast<double>(extra));
  per_unit("analysis.noisy_signals", static_cast<double>(noisy));
  res.metrics.push_back(
      {"xring.sweep_efficiency",
       wall > 0.0 ? setting / (wall * args.jobs) : 0.0, "ratio"});
  const auto unit_mean = [](const std::vector<TracedPass>& passes) {
    std::vector<double> v;
    for (const TracedPass& t : passes) v.push_back(mean(t.pass.seconds));
    return median(v);
  };
  // Per unit, the median traced time over the rounds against the untraced
  // time; the median over units keeps one slow instance from deciding it.
  std::vector<double> overhead;
  for (std::size_t i = 0; i < entry.seconds.size(); ++i) {
    std::vector<double> traced;
    for (const TracedPass& t : tn) traced.push_back(t.pass.seconds[i]);
    overhead.push_back(median(traced) / entry.seconds[i]);
  }
  res.metrics.push_back({"trace.overhead_frac", median(overhead) - 1.0,
                         "ratio"});
  const auto counter = [&](const char* name) {
    const auto it = tn.front().counters.find(name);
    return it == tn.front().counters.end() ? 0.0
                                           : static_cast<double>(it->second);
  };
  per_unit("lp.pivots", counter("lp.pivots"));
  const double launched = counter("milp.spec_launched");
  res.metrics.push_back({"milp.spec_hit_ratio",
                         launched > 0 ? counter("milp.spec_hits") / launched
                                      : 0.0,
                         "ratio"});
  per_unit("mapping.fits_probes", counter("mapping.fits_probes"));
  per_unit("mapping.reloc_attempts", counter("mapping.reloc_attempts"));
  per_unit("par.tasks", counter("par.tasks"));
  per_unit("par.steals", counter("par.steals"));
  res.notes.push_back("mean unit seconds: entry " +
                      std::to_string(mean(entry.seconds)) + ", traced jobs " +
                      std::to_string(args.jobs) + " " +
                      std::to_string(unit_mean(tn)) + ", traced jobs 1 " +
                      std::to_string(unit_mean(t1)));
  return res;
}

// ------------------------------------------------------------------ report

bool optimized_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  return true;
#else
  return false;
#endif
}

void print_result(const std::string& workload, const Result& res) {
  std::printf("== %s\n", workload.c_str());
  for (const std::string& n : res.notes) std::printf("  %s\n", n.c_str());
  for (const Metric& m : res.metrics) {
    std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  failed %ld of %ld units attempted\n", res.failed,
              res.attempted);
}

std::string result_json(const Result& res, const std::string& prefix) {
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted);
  out += ", \"failed\": " + std::to_string(res.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    out += (i ? ", \"" : "\"") + prefix + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xring_perfbench: %s\n", e.what());
    return 2;
  }
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "xring_perfbench: refusing to report from a non-optimized "
                 "build (build type '%s'); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  std::printf(
      "provenance: {\"cpu\": \"%s\", \"nproc\": %d, \"jobs\": %d, "
      "\"build_type\": \"%s\", \"git_hash\": \"%s\", \"source_digest\": "
      "\"%s\", \"seed\": %llu, \"corpus_seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d}\n",
      json_escape(cpu_model()).c_str(), xring::par::hardware_jobs(), args.jobs,
      PERFBENCH_BUILD_TYPE, json_escape(args.git_hash).c_str(),
      json_escape(args.source_digest).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(args.corpus_seed), args.seconds,
      args.trace ? 1 : 0);

  std::vector<std::string> names;
  if (args.workload == "all") {
    names.assign(std::begin(kWorkloadNames), std::end(kWorkloadNames));
  } else {
    names.push_back(args.workload);
  }
  Result total;
  try {
    for (const std::string& name : names) {
      reset_peak_rss();
      Args one = args;
      one.workload = name;
      Result res = args.trace ? run_layers(one) : run_timed(one);
      for (Metric& m : res.metrics) {
        if (!std::isfinite(m.value)) {
          res.notes.push_back("FAIL metric " + m.name + " is not finite");
          ++res.failed;
          m.value = 0.0;
        }
      }
      print_result(name, res);
      total.attempted += res.attempted;
      total.failed += res.failed;
      const std::string prefix = names.size() > 1 ? name + "." : "";
      for (const Metric& m : res.metrics) {
        total.metrics.push_back({prefix + m.name, m.value, m.unit});
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xring_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", result_json(total, "").c_str());
  std::fflush(stdout);
  return 0;
}
