#include "geom/lshape.hpp"

#include <algorithm>

namespace xring::geom {

LRoute::LRoute(Point from, Point to, LOrder order)
    : from_(from), to_(to), order_(order) {
  bend_ = order == LOrder::kVerticalFirst ? Point{from.x, to.y}
                                          : Point{to.x, from.y};
  auto push_if_real = [this](Point a, Point b) {
    if (a != b) segments_[count_++] = Segment{a, b};
  };
  push_if_real(from_, bend_);
  push_if_real(bend_, to_);
}

std::array<LRoute, 2> l_route_options(Point from, Point to) {
  return {LRoute(from, to, LOrder::kVerticalFirst),
          LRoute(from, to, LOrder::kHorizontalFirst)};
}

bool routes_cross(const LRoute& a, const LRoute& b) {
  return crossing_count(a, b) > 0;
}

int crossing_count(const LRoute& a, const LRoute& b) {
  int n = 0;
  for (const Segment& s : a.segments()) {
    for (const Segment& t : b.segments()) {
      if (crosses(s, t)) ++n;
    }
  }
  return n;
}

bool routes_overlap(const LRoute& a, const LRoute& b) {
  for (const Segment& s : a.segments()) {
    for (const Segment& t : b.segments()) {
      if (classify(s, t) == Touch::kOverlap) return true;
    }
  }
  return false;
}

namespace {

// The two exact early exits of the conflict test, taken before any route is
// built. Edges sharing an endpoint are never conflicting: they can always
// join at the shared node without a transversal crossing (the ring visits
// the node). Every L-option of an edge lies in the closed bounding box of its
// endpoints, and a crossing point lies strictly inside a horizontal leg of
// one edge and a vertical leg of the other. So edges whose boxes are
// separated, or meet only along a line (say a.max_x == b.min_x), cannot
// cross under any option.
bool never_conflict(Point a_from, Point a_to, Point b_from, Point b_to) {
  if (a_from == b_from || a_from == b_to || a_to == b_from || a_to == b_to) {
    return true;
  }
  return std::max(a_from.x, a_to.x) <= std::min(b_from.x, b_to.x) ||
         std::max(b_from.x, b_to.x) <= std::min(a_from.x, a_to.x) ||
         std::max(a_from.y, a_to.y) <= std::min(b_from.y, b_to.y) ||
         std::max(b_from.y, b_to.y) <= std::min(a_from.y, a_to.y);
}

// Only transversal crossings disqualify an option pair. Collinear overlap
// is legal: physical waveguides have width and run in parallel at a small
// offset, which the integer grid of node coordinates cannot represent.
bool every_option_pair_crosses(const std::array<LRoute, 2>& a,
                               const std::array<LRoute, 2>& b) {
  for (const LRoute& ra : a) {
    for (const LRoute& rb : b) {
      if (!routes_cross(ra, rb)) return false;
    }
  }
  return true;
}

}  // namespace

bool edges_conflict(Point a_from, Point a_to, Point b_from, Point b_to) {
  if (never_conflict(a_from, a_to, b_from, b_to)) return false;
  return every_option_pair_crosses(l_route_options(a_from, a_to),
                                   l_route_options(b_from, b_to));
}

bool edges_conflict(const std::array<LRoute, 2>& a,
                    const std::array<LRoute, 2>& b) {
  if (never_conflict(a[0].from(), a[0].to(), b[0].from(), b[0].to())) {
    return false;
  }
  return every_option_pair_crosses(a, b);
}

}  // namespace xring::geom
