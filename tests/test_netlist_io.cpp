#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "netlist/io.hpp"
#include "netlist/traffic.hpp"

namespace xring::netlist {
namespace {

TEST(FloorplanIo, RoundTrip) {
  const Floorplan original = Floorplan::standard(16);
  std::stringstream buf;
  write_floorplan(original, buf);
  const Floorplan loaded = read_floorplan(buf);
  ASSERT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.die_width(), original.die_width());
  EXPECT_EQ(loaded.die_height(), original.die_height());
  for (NodeId v = 0; v < original.size(); ++v) {
    EXPECT_EQ(loaded.position(v), original.position(v));
    EXPECT_EQ(loaded.node(v).name, original.node(v).name);
  }
}

TEST(FloorplanIo, ParsesCommentsAndBlankLines) {
  std::istringstream in(
      "# a floorplan\n"
      "\n"
      "die 5000 4000\n"
      "node alpha 100 200   # trailing comment\n"
      "node beta 300 400\n");
  const Floorplan fp = read_floorplan(in);
  ASSERT_EQ(fp.size(), 2);
  EXPECT_EQ(fp.node(0).name, "alpha");
  EXPECT_EQ(fp.position(1), (geom::Point{300, 400}));
  EXPECT_EQ(fp.die_width(), 5000);
}

TEST(FloorplanIo, DerivesDieFromBoundingBoxWhenMissing) {
  std::istringstream in("node a 0 0\nnode b 3000 2000\n");
  const Floorplan fp = read_floorplan(in);
  EXPECT_EQ(fp.die_width(), 4000);
  EXPECT_EQ(fp.die_height(), 3000);
}

TEST(FloorplanIo, RejectsMalformedInput) {
  {
    std::istringstream in("die -5 10\nnode a 0 0\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);
  }
  {
    std::istringstream in("node a 0\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);
  }
  {
    std::istringstream in("blob 1 2 3\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);
  }
  {
    std::istringstream in("die 10 10\n");
    EXPECT_THROW(read_floorplan(in), std::invalid_argument);  // no nodes
  }
  // Degenerate and out-of-range floorplans: each diagnostic names the line
  // (and, for a repeated site, the earlier node's line too).
  const auto diagnostic = [](const std::string& text) -> std::string {
    std::istringstream in(text);
    try {
      read_floorplan(in);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(diagnostic("die 10 10\nnode a 1 2\nnode b 3 4\nnode c 1 2\n"),
            "line 4: node 'c' repeats the coordinates of node 'a' on line 2");
  EXPECT_EQ(diagnostic("die 10 10\nnode a 1 2\nnode b 11 4\n"),
            "line 3: node 'b' at (11, 4) lies outside the die [0, 10] x [0, 10]");
  EXPECT_EQ(diagnostic("node a 0 0\nnode b 5 -1\n"),
            "line 2: node 'b' at (5, -1) lies outside the die [0, 1005] x [0, 1000]");
  // A die given after the nodes still bounds them.
  EXPECT_EQ(diagnostic("node a 0 20\ndie 10 10\n"),
            "line 1: node 'a' at (0, 20) lies outside the die [0, 10] x [0, 10]");
  EXPECT_EQ(diagnostic("node a 0 4611686018427387904\n"),
            "line 1: node 'a' coordinate exceeds 1073741824 um");
  EXPECT_EQ(diagnostic("die 1073741825 10\nnode a 0 0\n"),
            "line 1: die side exceeds 1073741824 um");
  // The bound itself is accepted.
  EXPECT_EQ(diagnostic("die 1073741824 1073741824\nnode a 1073741824 0\n"),
            "accepted");
}

TEST(FloorplanIo, MissingFileThrows) {
  EXPECT_THROW(load_floorplan("/nonexistent/path/fp.txt"), std::runtime_error);
}

TEST(TrafficPatterns, Permutation) {
  const Traffic t = Traffic::permutation(8, 3);
  ASSERT_EQ(t.size(), 8);
  for (const Signal& s : t.signals()) {
    EXPECT_EQ(s.dst, (s.src + 3) % 8);
  }
  EXPECT_THROW(Traffic::permutation(8, 0), std::invalid_argument);
  EXPECT_THROW(Traffic::permutation(8, 8), std::invalid_argument);
}

TEST(TrafficPatterns, Hotspot) {
  const Traffic t = Traffic::hotspot(8, 2);
  ASSERT_EQ(t.size(), 14);
  for (const Signal& s : t.signals()) {
    EXPECT_TRUE(s.src == 2 || s.dst == 2);
  }
  EXPECT_THROW(Traffic::hotspot(8, 8), std::invalid_argument);
}

TEST(TrafficPatterns, BitReversal) {
  const Traffic t = Traffic::bit_reversal(8);
  // 3-bit reversal: 0<->0, 1<->4, 2<->2, 3<->6, 5<->5, 7<->7. Fixed points
  // (0, 2, 5, 7) are skipped: 4 signals remain.
  ASSERT_EQ(t.size(), 4);
  for (const Signal& s : t.signals()) {
    NodeId rev = 0;
    for (int b = 0; b < 3; ++b) {
      if (s.src & (1 << b)) rev |= 1 << (2 - b);
    }
    EXPECT_EQ(s.dst, rev);
  }
  EXPECT_THROW(Traffic::bit_reversal(12), std::invalid_argument);
}

TEST(TrafficPatterns, Transpose) {
  const Traffic t = Traffic::transpose(4, 4);
  ASSERT_EQ(t.size(), 12);
  for (const Signal& s : t.signals()) {
    const int r = s.src / 4, c = s.src % 4;
    EXPECT_EQ(s.dst, c * 4 + r);
  }
  EXPECT_THROW(Traffic::transpose(3, 4), std::invalid_argument);
}

}  // namespace
}  // namespace xring::netlist
