#pragma once

#include <iosfwd>
#include <string>

#include "phys/parameters.hpp"

namespace xring::phys {

/// Plain-text parameter files, one `key = value` per line with `#` comments
/// — e.g.:
///
///   # device losses
///   loss.propagation_db_per_mm = 0.0274
///   loss.crossing_db           = 0.15
///   crosstalk.crossing_db      = -40
///   geometry.modulator_um      = 50
///
/// Unknown keys are an error (typos in loss coefficients silently skew
/// every result otherwise), and so is any value that is not one finite
/// number ("0.5abc", "inf"), a `crosstalk.residue_filter` other than
/// true/false/1/0, and a value out of its physical range: a laser
/// efficiency outside (0, 1], a negative `loss.*` coefficient (the receiver
/// sensitivity in dBm excepted), a positive crosstalk leak fraction
/// (`crosstalk.*_db` other than `snr_warn_db`), a negative noise floor and
/// a non-positive geometry size. Every diagnostic names its line. Unlisted
/// keys keep their preset values, so a file only needs the coefficients it
/// changes.
Parameters read_parameters(std::istream& in, Parameters base = Parameters::oring());
Parameters load_parameters(const std::string& path,
                           Parameters base = Parameters::oring());

void write_parameters(const Parameters& params, std::ostream& out);

}  // namespace xring::phys
