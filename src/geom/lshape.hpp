#pragma once

#include <array>
#include <span>

#include "geom/segment.hpp"

namespace xring::geom {

/// Which leg of an L-shaped rectilinear route is taken first.
enum class LOrder {
  kVerticalFirst,    ///< route vertically, then horizontally (Fig. 6(b), red)
  kHorizontalFirst,  ///< route horizontally, then vertically (Fig. 6(b), blue)
};

/// An L-shaped rectilinear route between two points (possibly degenerate to
/// a straight segment when the points are axis-aligned). This is the routing
/// primitive the XRing MILP model reasons about: every graph edge is
/// implemented as one of its two L-route options.
class LRoute {
 public:
  LRoute(Point from, Point to, LOrder order);

  const Point& from() const { return from_; }
  const Point& to() const { return to_; }
  LOrder order() const { return order_; }
  const Point& bend() const { return bend_; }

  /// The one or two non-degenerate axis-aligned segments of the route.
  std::span<const Segment> segments() const {
    return {segments_.data(), static_cast<std::size_t>(count_)};
  }

  /// Total route length == Manhattan distance between the endpoints.
  Coord length() const { return manhattan(from_, to_); }

  /// True if the route degenerates to a single straight segment (or a point).
  bool straight() const { return count_ <= 1; }

 private:
  Point from_;
  Point to_;
  Point bend_;
  LOrder order_;
  // The legs are stored inline (count_ of them): routes are built per
  // conflict query and per hop, so they must not allocate.
  int count_ = 0;
  std::array<Segment, 2> segments_{};
};

/// Both L-route options for an edge. For axis-aligned endpoints the two
/// options coincide; both entries are still populated so callers can iterate
/// uniformly.
std::array<LRoute, 2> l_route_options(Point from, Point to);

/// True if the two concrete routes form at least one waveguide crossing.
/// Endpoint/bend touching does not count as a crossing, matching the paper's
/// treatment of consecutive ring edges that share a node.
bool routes_cross(const LRoute& a, const LRoute& b);

/// Number of transversal crossings between the two routes.
int crossing_count(const LRoute& a, const LRoute& b);

/// True if the two concrete routes overlap collinearly anywhere (an illegal
/// configuration for two distinct waveguides).
bool routes_overlap(const LRoute& a, const LRoute& b);

/// The paper's conflict test (Sec. III-A): two edges are *conflicting* iff
/// none of the four combinations of their L-route options avoids a
/// transversal crossing. Conflict-free edges can always be co-selected.
/// Edges sharing an endpoint never conflict, and neither do edges whose
/// bounding boxes are disjoint or meet only along a line; both exits are
/// taken before any route is built.
bool edges_conflict(Point a_from, Point a_to, Point b_from, Point b_to);

/// The same test on precomputed `l_route_options` of both edges, for callers
/// that query one edge against many.
bool edges_conflict(const std::array<LRoute, 2>& a,
                    const std::array<LRoute, 2>& b);

}  // namespace xring::geom
