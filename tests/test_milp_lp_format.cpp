#include <gtest/gtest.h>

#include "milp/lp_format.hpp"
#include "ring/tsp_model.hpp"

namespace xring::milp {
namespace {

TEST(LpFormat, SmallModelStructure) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(3.0);
  const int b = m.add_variable(VarType::kContinuous, 0.0, 5.0, -1.5);
  m.add_constraint({{a, 2.0}, {b, 1.0}}, Sense::kLe, 4.0);
  m.add_constraint({{a, 1.0}, {b, -1.0}}, Sense::kGe, -1.0);
  m.add_constraint({{b, 1.0}}, Sense::kEq, 2.0);

  const std::string lp = to_lp_format(m, "demo");
  EXPECT_NE(lp.find("Maximize"), std::string::npos);
  EXPECT_NE(lp.find("3 x0 - 1.5 x1"), std::string::npos);
  EXPECT_NE(lp.find("c0: 2 x0 + x1 <= 4"), std::string::npos);
  EXPECT_NE(lp.find("c1: x0 - x1 >= -1"), std::string::npos);
  EXPECT_NE(lp.find("c2: x1 = 2"), std::string::npos);
  EXPECT_NE(lp.find("Binary"), std::string::npos);
  EXPECT_NE(lp.find(" x0\n"), std::string::npos);
  EXPECT_NE(lp.find("0 <= x1 <= 5"), std::string::npos);
  EXPECT_NE(lp.find("End"), std::string::npos);
  // Bounds of binaries are implied by the Binary section, not listed.
  EXPECT_EQ(lp.find("0 <= x0"), std::string::npos);
}

TEST(LpFormat, MinimizationAndInfiniteBounds) {
  Model m;
  const int x = m.add_variable(VarType::kContinuous, 1.0,
                               std::numeric_limits<double>::infinity(), 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 3.0);
  const std::string lp = to_lp_format(m);
  EXPECT_NE(lp.find("Minimize"), std::string::npos);
  EXPECT_NE(lp.find("1 <= x0 <= +inf"), std::string::npos);
}

TEST(LpFormat, RingTspModelDumpsCompletely) {
  // The real Step 1 model: every directed edge variable and every degree
  // row must appear.
  const auto fp = netlist::Floorplan::standard(8);
  const ring::ConflictOracle oracle(fp);
  const ring::TspModel tsp(fp, oracle);
  const std::string lp = to_lp_format(tsp.model(), "ring_tsp_8");
  EXPECT_NE(lp.find("ring_tsp_8"), std::string::npos);
  // 8 * 7 = 56 binaries declared.
  int binaries = 0;
  for (std::size_t p = lp.find("Binary"); p != std::string::npos;
       p = lp.find(" x", p + 1)) {
    ++binaries;
  }
  EXPECT_EQ(binaries - 1, 56);  // first hit is the section header line
  // Degree rows are equalities with rhs 1.
  EXPECT_NE(lp.find("= 1"), std::string::npos);
}

TEST(LpFormat, EmptyObjectiveStillValid) {
  Model m;
  m.add_binary(0.0);
  const std::string lp = to_lp_format(m);
  EXPECT_NE(lp.find("obj: 0 x0"), std::string::npos);
}

}  // namespace
}  // namespace xring::milp
