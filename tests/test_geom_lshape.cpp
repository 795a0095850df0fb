#include <gtest/gtest.h>

#include <random>

#include "geom/lshape.hpp"
#include "oracle/geom_reference.hpp"

namespace xring::geom {
namespace {

TEST(LRoute, VerticalFirstGeometry) {
  const LRoute r({0, 0}, {4, 6}, LOrder::kVerticalFirst);
  EXPECT_EQ(r.bend(), (Point{0, 6}));
  ASSERT_EQ(r.segments().size(), 2u);
  EXPECT_EQ(r.segments()[0], (Segment{{0, 0}, {0, 6}}));
  EXPECT_EQ(r.segments()[1], (Segment{{0, 6}, {4, 6}}));
  EXPECT_EQ(r.length(), 10);
  EXPECT_FALSE(r.straight());
}

TEST(LRoute, HorizontalFirstGeometry) {
  const LRoute r({0, 0}, {4, 6}, LOrder::kHorizontalFirst);
  EXPECT_EQ(r.bend(), (Point{4, 0}));
  ASSERT_EQ(r.segments().size(), 2u);
  EXPECT_EQ(r.segments()[0], (Segment{{0, 0}, {4, 0}}));
  EXPECT_EQ(r.segments()[1], (Segment{{4, 0}, {4, 6}}));
}

TEST(LRoute, DegeneratesToStraight) {
  const LRoute r({0, 0}, {4, 0}, LOrder::kVerticalFirst);
  ASSERT_EQ(r.segments().size(), 1u);
  EXPECT_TRUE(r.straight());
  EXPECT_EQ(r.length(), 4);
  const LRoute point({2, 2}, {2, 2}, LOrder::kHorizontalFirst);
  EXPECT_TRUE(point.segments().empty());
  EXPECT_EQ(point.length(), 0);
}

TEST(LRoute, BothOptionsCoverBothOrders) {
  const auto opts = l_route_options({0, 0}, {3, 3});
  EXPECT_EQ(opts[0].order(), LOrder::kVerticalFirst);
  EXPECT_EQ(opts[1].order(), LOrder::kHorizontalFirst);
  EXPECT_EQ(opts[0].length(), opts[1].length());
}

TEST(LRouteCrossing, OppositeCornersCross) {
  // Two L-routes between opposite corners of a square: VF vs VF options
  // pass each other, but specific combinations cross.
  const LRoute a({0, 0}, {10, 10}, LOrder::kVerticalFirst);
  const LRoute b({0, 10}, {10, 0}, LOrder::kVerticalFirst);
  // a: (0,0)->(0,10)->(10,10); b: (0,10)->(0,0)->(10,0): collinear legs,
  // no transversal crossing.
  EXPECT_FALSE(routes_cross(a, b));
  const LRoute c({0, 10}, {10, 0}, LOrder::kHorizontalFirst);
  // c: (0,10)->(10,10)->(10,0): again parallel/touching, not crossing.
  EXPECT_FALSE(routes_cross(a, c));
}

TEST(LRouteCrossing, GenuineCross) {
  const LRoute a({0, 5}, {10, 5}, LOrder::kVerticalFirst);  // straight
  const LRoute b({5, 0}, {5, 10}, LOrder::kVerticalFirst);  // straight
  EXPECT_TRUE(routes_cross(a, b));
  EXPECT_EQ(crossing_count(a, b), 1);
}

TEST(LRouteCrossing, TwoCrossingsPossible) {
  // Two L-routes can cross twice: a's legs both cut through b.
  const LRoute a({0, 0}, {10, 10}, LOrder::kVerticalFirst);
  //   a: vertical x=0 from 0..10, horizontal y=10 from 0..10
  const LRoute b({-5, 5}, {5, 15}, LOrder::kHorizontalFirst);
  //   b: horizontal y=5 from -5..5, vertical x=5 from 5..15
  EXPECT_EQ(crossing_count(a, b), 2);
}

TEST(LRouteOverlap, CollinearLegsOverlap) {
  const LRoute a({0, 0}, {10, 0}, LOrder::kVerticalFirst);
  const LRoute b({5, 0}, {15, 0}, LOrder::kVerticalFirst);
  EXPECT_TRUE(routes_overlap(a, b));
  EXPECT_FALSE(routes_cross(a, b));
}

TEST(EdgesConflict, SharedEndpointNeverConflicts) {
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {10, 10}, {20, 0}));
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {0, 0}, {20, 0}));
}

TEST(EdgesConflict, InterleavedDiagonalsConflict) {
  // Endpoints interleave around a square so that every combination of
  // L-options crosses: the classic Fig. 6(d) situation.
  EXPECT_TRUE(edges_conflict({0, 5}, {10, 5}, {5, 0}, {5, 10}));
}

TEST(EdgesConflict, SeparatedEdgesDoNotConflict) {
  EXPECT_FALSE(edges_conflict({0, 0}, {1, 1}, {10, 10}, {11, 11}));
}

TEST(EdgesConflict, SameBoundingBoxButAvoidable) {
  // Diagonals of the same square: one can route "around" the other by
  // picking complementary L-orders (Fig. 6(c)).
  EXPECT_FALSE(edges_conflict({0, 0}, {10, 10}, {0, 10}, {10, 0}));
}

TEST(EdgesConflict, SymmetricInArguments) {
  const Point a1{0, 5}, a2{10, 5}, b1{5, 0}, b2{5, 10};
  EXPECT_EQ(edges_conflict(a1, a2, b1, b2), edges_conflict(b1, b2, a1, a2));
  EXPECT_EQ(edges_conflict(a1, a2, b1, b2), edges_conflict(a2, a1, b2, b1));
}

TEST(EdgesConflict, BothOverloadsMatchTheReferenceOnRandomQuadruples) {
  // A 6 x 6 coordinate grid makes axis-aligned and degenerate edges,
  // collinear legs, boxes that touch at a side or a corner, and coincident
  // points common, so every branch of both early exits is exercised.
  std::mt19937 rng(20230417);
  std::uniform_int_distribution<Coord> coord(0, 5);
  const auto point = [&] { return Point{coord(rng), coord(rng)}; };
  int conflicts = 0;
  for (int i = 0; i < 200000; ++i) {
    const Point a1 = point(), a2 = point(), b1 = point(), b2 = point();
    const bool expected = reference::edges_conflict(a1, a2, b1, b2);
    conflicts += expected;
    ASSERT_EQ(edges_conflict(a1, a2, b1, b2), expected)
        << to_string(a1) << "-" << to_string(a2) << " vs " << to_string(b1)
        << "-" << to_string(b2);
    ASSERT_EQ(edges_conflict(l_route_options(a1, a2), l_route_options(b1, b2)),
              expected)
        << to_string(a1) << "-" << to_string(a2) << " vs " << to_string(b1)
        << "-" << to_string(b2);
  }
  EXPECT_GT(conflicts, 1000);  // the draw is not all trivially free
}

}  // namespace
}  // namespace xring::geom
