#include "phys/parameters_io.hpp"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>

namespace xring::phys {

namespace {

/// Key table: one entry per tunable coefficient. Reading and writing share
/// it, so the two can never drift apart.
std::map<std::string, std::function<double&(Parameters&)>> key_table() {
  using F = std::function<double&(Parameters&)>;
  std::map<std::string, F> keys;
  keys["loss.propagation_db_per_mm"] = [](Parameters& p) -> double& {
    return p.loss.propagation_db_per_mm;
  };
  keys["loss.drop_db"] = [](Parameters& p) -> double& { return p.loss.drop_db; };
  keys["loss.through_db"] = [](Parameters& p) -> double& {
    return p.loss.through_db;
  };
  keys["loss.crossing_db"] = [](Parameters& p) -> double& {
    return p.loss.crossing_db;
  };
  keys["loss.bend_db"] = [](Parameters& p) -> double& { return p.loss.bend_db; };
  keys["loss.photodetector_db"] = [](Parameters& p) -> double& {
    return p.loss.photodetector_db;
  };
  keys["loss.splitter_excess_db"] = [](Parameters& p) -> double& {
    return p.loss.splitter_excess_db;
  };
  keys["loss.modulator_db"] = [](Parameters& p) -> double& {
    return p.loss.modulator_db;
  };
  keys["loss.receiver_sensitivity_dbm"] = [](Parameters& p) -> double& {
    return p.loss.receiver_sensitivity_dbm;
  };
  keys["loss.coupler_db"] = [](Parameters& p) -> double& {
    return p.loss.coupler_db;
  };
  keys["loss.laser_wall_plug_efficiency"] = [](Parameters& p) -> double& {
    return p.loss.laser_wall_plug_efficiency;
  };
  keys["crosstalk.crossing_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.crossing_db;
  };
  keys["crosstalk.mrr_through_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.mrr_through_db;
  };
  keys["crosstalk.mrr_drop_residue_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.mrr_drop_residue_db;
  };
  keys["crosstalk.noise_floor_mw"] = [](Parameters& p) -> double& {
    return p.crosstalk.noise_floor_mw;
  };
  keys["crosstalk.snr_warn_db"] = [](Parameters& p) -> double& {
    return p.crosstalk.snr_warn_db;
  };
  keys["geometry.modulator_um"] = [](Parameters& p) -> double& {
    return p.geometry.modulator_um;
  };
  keys["geometry.splitter_um"] = [](Parameters& p) -> double& {
    return p.geometry.splitter_um;
  };
  return keys;
}

/// Why `v` is out of range for `key`, or nullptr when it is in range.
const char* range_error(const std::string& key, double v) {
  const auto starts = [&key](const char* prefix) {
    return key.rfind(prefix, 0) == 0;
  };
  if (key == "loss.laser_wall_plug_efficiency") {
    return v > 0.0 && v <= 1.0 ? nullptr : "must lie in (0, 1]";
  }
  // A sensitivity (dBm) and an SNR threshold (dB) may take any sign.
  if (key == "loss.receiver_sensitivity_dbm" || key == "crosstalk.snr_warn_db") {
    return nullptr;
  }
  if (starts("loss.") || key == "crosstalk.noise_floor_mw") {
    return v >= 0.0 ? nullptr : "must not be negative";
  }
  // The remaining crosstalk.*_db keys are leaked power fractions.
  if (starts("crosstalk.")) return v <= 0.0 ? nullptr : "must not be positive";
  if (starts("geometry.")) return v > 0.0 ? nullptr : "must be positive";
  return nullptr;
}

}  // namespace

Parameters read_parameters(std::istream& in, Parameters base) {
  const auto keys = key_table();
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      // Only whitespace may remain.
      if (line.find_first_not_of(" \t\r") != std::string::npos) {
        throw std::invalid_argument("line " + std::to_string(lineno) +
                                    ": expected key = value");
      }
      continue;
    }
    auto trim = [](std::string s) {
      const auto b = s.find_first_not_of(" \t\r");
      const auto e = s.find_last_not_of(" \t\r");
      return b == std::string::npos ? std::string() : s.substr(b, e - b + 1);
    };
    const std::string key = trim(line.substr(0, eq));
    const std::string value = trim(line.substr(eq + 1));
    const auto fail = [&](const std::string& why) {
      return std::invalid_argument("line " + std::to_string(lineno) + ": " +
                                   why);
    };

    if (key == "crosstalk.residue_filter") {
      if (value != "true" && value != "false" && value != "1" &&
          value != "0") {
        throw fail("expected true, false, 1 or 0 for '" + key + "', got '" +
                   value + "'");
      }
      base.crosstalk.residue_filter = value == "true" || value == "1";
      continue;
    }
    const auto it = keys.find(key);
    if (it == keys.end()) throw fail("unknown parameter '" + key + "'");
    // The whole token must be one finite number: "0.5abc" is a typo, not 0.5.
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size()) {
      throw fail("non-numeric value for '" + key + "': '" + value + "'");
    }
    if (!std::isfinite(v)) {
      throw fail("non-finite value for '" + key + "': '" + value + "'");
    }
    if (const char* why = range_error(key, v)) {
      throw fail("'" + key + "' " + why + ", got " + value);
    }
    it->second(base) = v;
  }
  return base;
}

Parameters load_parameters(const std::string& path, Parameters base) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open parameter file: " + path);
  return read_parameters(in, base);
}

void write_parameters(const Parameters& params, std::ostream& out) {
  out << "# xring device parameters\n";
  Parameters copy = params;
  for (const auto& [key, access] : key_table()) {
    out << key << " = " << access(copy) << "\n";
  }
  out << "crosstalk.residue_filter = "
      << (params.crosstalk.residue_filter ? "true" : "false") << "\n";
}

}  // namespace xring::phys
