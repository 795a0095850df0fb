#pragma once

#include <iosfwd>
#include <string>

#include "netlist/floorplan.hpp"

namespace xring::netlist {

/// Largest accepted floorplan coordinate or die side, 2^30 um: every
/// coordinate difference then fits in 31 bits and any product of two in 62.
inline constexpr geom::Coord kMaxCoord = geom::Coord{1} << 30;

/// Plain-text floorplan format, one directive per line:
///
///   # comment
///   die <width_um> <height_um>
///   node <name> <x_um> <y_um>
///
/// Node ids are assigned in file order. The format is deliberately trivial
/// so floorplans can be written by hand or emitted by other tools. Without
/// a die directive each die side is the largest node coordinate + 1000 um.
///
/// Rejected with a line-numbered std::invalid_argument: a node on the site
/// of an earlier node (the conflict test identifies shared endpoints by
/// coordinates), a node outside [0, die width] x [0, die height], and any
/// coordinate or die side above kMaxCoord.
Floorplan read_floorplan(std::istream& in);
Floorplan load_floorplan(const std::string& path);

void write_floorplan(const Floorplan& floorplan, std::ostream& out);
void save_floorplan(const Floorplan& floorplan, const std::string& path);

}  // namespace xring::netlist
