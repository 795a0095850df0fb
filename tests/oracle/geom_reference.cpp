#include "oracle/geom_reference.hpp"

namespace xring::geom::reference {

bool edges_conflict(Point a_from, Point a_to, Point b_from, Point b_to) {
  if (a_from == b_from || a_from == b_to || a_to == b_from || a_to == b_to) {
    return false;
  }
  bool every_pair_crosses = true;
  for (const LRoute& ra : l_route_options(a_from, a_to)) {
    for (const LRoute& rb : l_route_options(b_from, b_to)) {
      every_pair_crosses = every_pair_crosses && routes_cross(ra, rb);
    }
  }
  return every_pair_crosses;
}

}  // namespace xring::geom::reference
