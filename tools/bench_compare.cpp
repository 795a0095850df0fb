// bench_compare — regression gate over two flat metrics JSON reports
// (the BENCH_*.json files written by the table benches and bench_micro).
//
//   bench_compare BASELINE.json CANDIDATE.json [options]
//
// options:
//   --time-tolerance R   time-like metrics may grow up to R× the baseline
//                        before counting as a regression (default: 3.0 —
//                        wall times are machine- and load-dependent)
//   --rel-tolerance R    quality metrics (losses, powers, counts) may drift
//                        relatively by R (default: 1e-6 — the pipeline is
//                        deterministic, so anything beyond rounding noise
//                        is a real behavior change)
//   --only-prefix P      compare only metrics whose name starts with P
//                        (e.g. `--only-prefix mapping.` gates the Step-3
//                        counters alone); one-sided-key notes are filtered
//                        the same way
//   --quiet              print regressions only
//
// The classification and gate formulas live in obs/runstore.hpp
// (classify_metric / time_noise_floor / metric_regressed) and are shared
// with `xring_runs diff`, so the cross-run reporter reproduces this gate
// exactly. Classification by metric name:
//   time-like  `span.*`, `*.real_time_ns`, `*.cpu_time_ns`, `*.total_s`,
//              `*.seconds`, or a last dot-component of `T` (the tables'
//              wall-clock column). Only growth is flagged; getting faster
//              never fails, and sub-noise-floor baselines are not gated.
//   ignored    `*.iterations` (google-benchmark picks the repeat count
//              from the machine's speed) and `*.t_us` timestamps.
//   solver     solver-internal trajectory counters (`lp.pivots`,
//              `lp.iterations.*`, `lp.refactorizations`, `lp.eta_nnz`,
//              `lp.ftran_density.*`, `milp.warm_pivots`,
//              `milp.cold_solves`): deterministic per build but expected to
//              move whenever the LP kernel's pivot path changes, so they
//              float free of the gate. The quality metrics they feed
//              (`milp.incumbent.last`, `ring.*`, table cells) stay gated
//              exactly — that pairing is the contract: the answer may not
//              move even when the path to it does.
//   resource   sampled resource and scheduling telemetry (`mem.*`,
//              `events.*`, `par.*`): RSS/allocator readings depend on
//              machine and allocator state, and steal counts and queue
//              depths are genuinely timing-dependent — two identical runs
//              differ. Never gated; they ride along for the human reading
//              the report.
//   quality    everything else; compared tight in both directions.
//
// Only keys present in BOTH files are compared; one-sided keys are
// non-fatal warnings, counted in the summary line even under --quiet
// (renaming a metric should not silently drop it from the gate).
//
// When `span.mapping.total_s` / `span.opening.total_s` /
// `span.analysis.total_s` / `span.verify.drc.total_s` appear in both
// files, the summary line also reports their before → after ratios — the
// Step-3/evaluation hot spans this tool most often gates.
//
// Exit status: 0 all comparisons within tolerance, 1 at least one
// regression, 2 usage or I/O error.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/export.hpp"
#include "obs/runstore.hpp"

namespace {

using xring::obs::MetricClass;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream out;
  out << in.rdbuf();
  if (in.bad()) throw std::runtime_error("error reading " + path);
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path, candidate_path;
  double time_tolerance = 3.0;
  double rel_tolerance = 1e-6;
  std::string only_prefix;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--time-tolerance") {
      time_tolerance = std::strtod(value("--time-tolerance"), nullptr);
    } else if (arg == "--rel-tolerance") {
      rel_tolerance = std::strtod(value("--rel-tolerance"), nullptr);
    } else if (arg == "--only-prefix") {
      only_prefix = value("--only-prefix");
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return 2;
    } else if (baseline_path.empty()) {
      baseline_path = arg;
    } else if (candidate_path.empty()) {
      candidate_path = arg;
    } else {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      return 2;
    }
  }
  if (candidate_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CANDIDATE.json "
                 "[--time-tolerance R] [--rel-tolerance R] "
                 "[--only-prefix P] [--quiet]\n");
    return 2;
  }

  std::map<std::string, double> base, cand;
  try {
    base = xring::obs::metrics_from_json(read_file(baseline_path));
    cand = xring::obs::metrics_from_json(read_file(candidate_path));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_compare: %s\n", e.what());
    return 2;
  }

  const auto in_scope = [&](const std::string& name) {
    return only_prefix.empty() ||
           name.compare(0, only_prefix.size(), only_prefix) == 0;
  };

  int compared = 0, regressions = 0, skipped = 0, warnings = 0;
  for (const auto& [name, b] : base) {
    if (!in_scope(name)) continue;
    const auto it = cand.find(name);
    if (it == cand.end()) {
      ++warnings;
      if (!quiet) std::printf("warning: %s only in baseline\n", name.c_str());
      continue;
    }
    const double c = it->second;
    const MetricClass cls = xring::obs::classify_metric(name);
    if (cls == MetricClass::kIgnored || cls == MetricClass::kSolverInternal ||
        cls == MetricClass::kResource) {
      ++skipped;
      continue;
    }
    ++compared;
    const xring::obs::GateOptions gate{time_tolerance, rel_tolerance};
    if (!xring::obs::metric_regressed(name, b, c, gate)) continue;
    ++regressions;
    if (std::isnan(b) || std::isnan(c)) {
      // null (NaN) values compare equal only to null.
      std::printf("REGRESSION %s: %s -> %s\n", name.c_str(),
                  std::isnan(b) ? "null" : "number",
                  std::isnan(c) ? "null" : "number");
    } else if (cls == MetricClass::kTimeLike) {
      const double floor = xring::obs::time_noise_floor(name);
      std::printf("REGRESSION %s: %g -> %g (%.2fx > %.2fx tolerance)\n",
                  name.c_str(), b, c, c / std::max(b, floor), time_tolerance);
    } else {
      std::printf("REGRESSION %s: %.12g -> %.12g\n", name.c_str(), b, c);
    }
  }
  for (const auto& [name, c] : cand) {
    if (in_scope(name) && base.find(name) == base.end()) {
      ++warnings;
      if (!quiet) std::printf("warning: %s only in candidate\n", name.c_str());
    }
  }

  // The pipeline hot spans, called out whenever both reports carry them:
  // the quickest read on whether a mapping/opening/analysis change moved
  // the needle.
  std::string hot_spans;
  for (const char* key : {"span.mapping.total_s", "span.opening.total_s",
                          "span.analysis.total_s", "span.verify.drc.total_s"}) {
    const auto b = base.find(key);
    const auto c = cand.find(key);
    if (b == base.end() || c == cand.end() || !in_scope(key)) continue;
    if (std::isnan(b->second) || std::isnan(c->second)) continue;
    char buf[128];
    std::snprintf(buf, sizeof buf, ", %s %.3gs -> %.3gs (%.2fx)", key,
                  b->second, c->second,
                  b->second > 0 ? c->second / b->second : 0.0);
    hot_spans += buf;
  }

  if (!quiet || regressions > 0 || warnings > 0) {
    std::printf("%d metrics compared (%d ignored), %d regression(s), "
                "%d one-sided key warning(s)%s\n",
                compared, skipped, regressions, warnings, hot_spans.c_str());
  }
  return regressions > 0 ? 1 : 0;
}
