#include <gtest/gtest.h>

#include <numeric>

#include "milp/branch_and_bound.hpp"
#include "lp/simplex.hpp"

namespace xring::milp {
namespace {

TEST(Model, RejectsUnknownVariableInConstraint) {
  Model m;
  m.add_binary(1.0);
  EXPECT_THROW(m.add_constraint({{5, 1.0}}, Sense::kLe, 1.0),
               std::out_of_range);
}

TEST(Model, BinaryBoundsClamped) {
  Model m;
  const int x = m.add_variable(VarType::kBinary, -3.0, 7.0, 0.0);
  EXPECT_EQ(m.lower(x), 0.0);
  EXPECT_EQ(m.upper(x), 1.0);
}

TEST(Bnb, PureLpPassesThrough) {
  // No binaries: the answer is the LP optimum.
  Model m;
  m.set_maximize(true);
  const int x = m.add_variable(VarType::kContinuous, 0, 10, 1.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 6.5);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 6.5, 1e-6);
}

TEST(Bnb, KnapsackSmall) {
  // max 10a + 13b + 7c, 3a + 4b + 2c <= 6 → {a, c} = 17? Check: a+b: 7 <= 6
  // no; b+c: 6 <= 6 → 20. Optimum is {b, c} with value 20.
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(10), b = m.add_binary(13), c = m.add_binary(7);
  m.add_constraint({{a, 3.0}, {b, 4.0}, {c, 2.0}}, Sense::kLe, 6.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, 1e-6);
  EXPECT_NEAR(r.x[a], 0.0, 1e-6);
  EXPECT_NEAR(r.x[b], 1.0, 1e-6);
  EXPECT_NEAR(r.x[c], 1.0, 1e-6);
}

TEST(Bnb, InfeasibleIntegerProgram) {
  // x + y = 1 with x = y forces a fractional solution: integer-infeasible.
  Model m;
  const int x = m.add_binary(1.0);
  const int y = m.add_binary(1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 1.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kEq, 0.0);
  EXPECT_EQ(solve(m).status, MipStatus::kInfeasible);
}

TEST(Bnb, WarmStartAcceptedWhenValid) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(5), b = m.add_binary(4);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  BnbOptions opt;
  opt.warm_start = std::vector<double>{0.0, 1.0};  // feasible, value 4
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);  // still finds the true optimum
}

TEST(Bnb, InvalidWarmStartIgnored) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(5), b = m.add_binary(4);
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
  BnbOptions opt;
  opt.warm_start = std::vector<double>{1.0, 1.0};  // violates the constraint
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-6);
}

TEST(Bnb, LazyConstraintsCutOffCandidates) {
  // max a + b with no explicit coupling; the lazy handler forbids a+b = 2,
  // emulating a separation oracle. Optimum becomes 1.
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(1), b = m.add_binary(1);
  BnbOptions opt;
  opt.lazy_handler = [&](const std::vector<double>& x) {
    std::vector<Constraint> cuts;
    if (x[a] > 0.5 && x[b] > 0.5) {
      cuts.push_back(Constraint{{{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0});
    }
    return cuts;
  };
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);
  EXPECT_GE(r.lazy_constraints_added, 1);
}

TEST(Bnb, LazyHandlerVetsWarmStartToo) {
  Model m;
  m.set_maximize(true);
  const int a = m.add_binary(1), b = m.add_binary(1);
  int handler_calls = 0;
  BnbOptions opt;
  opt.warm_start = std::vector<double>{1.0, 1.0};
  opt.lazy_handler = [&](const std::vector<double>& x) {
    ++handler_calls;
    std::vector<Constraint> cuts;
    if (x[a] > 0.5 && x[b] > 0.5) {
      cuts.push_back(Constraint{{{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0});
    }
    return cuts;
  };
  const MipResult r = solve(m, opt);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, 1e-6);
  EXPECT_GE(handler_calls, 2);  // once for the warm start, once per candidate
}

TEST(Bnb, EqualityPartitioning) {
  // Choose exactly 2 of 4 items minimizing cost.
  Model m;
  const double costs[4] = {3, 1, 4, 1.5};
  std::vector<int> vars;
  Terms sum;
  for (const double c : costs) {
    vars.push_back(m.add_binary(c));
    sum.emplace_back(vars.back(), 1.0);
  }
  m.add_constraint(sum, Sense::kEq, 2.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, 2.5, 1e-6);
  EXPECT_NEAR(r.x[1] + r.x[3], 2.0, 1e-6);
}

TEST(Bnb, MixedIntegerContinuous) {
  // max 2x + y with x binary, y continuous in [0, 1.5], x + y <= 2.
  Model m;
  m.set_maximize(true);
  const int x = m.add_binary(2.0);
  const int y = m.add_variable(VarType::kContinuous, 0, 1.5, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 2.0);
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 1.0, 1e-6);
  EXPECT_NEAR(r.x[y], 1.0, 1e-6);
  EXPECT_NEAR(r.objective, 3.0, 1e-6);
}

TEST(Bnb, NodeLimitReturnsIncumbentAsFeasible) {
  // A knapsack big enough to need branching, with node_limit 1: the warm
  // start survives as the reported feasible solution.
  Model m;
  m.set_maximize(true);
  std::vector<int> v;
  Terms cap;
  for (int i = 0; i < 12; ++i) {
    v.push_back(m.add_binary(i % 5 + 1));
    cap.emplace_back(v.back(), static_cast<double>(i % 3 + 1));
  }
  m.add_constraint(cap, Sense::kLe, 7.0);
  BnbOptions opt;
  opt.node_limit = 0;
  opt.warm_start = std::vector<double>(12, 0.0);
  const MipResult r = solve(m, opt);
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(Lattice, LiftRoundsUpToTheLatticeAndNeverDown) {
  const ObjectiveLattice even{0.0, 2.0};
  EXPECT_EQ(even.lift(9.0), 10.0);
  EXPECT_EQ(even.lift(10.0), 10.0);
  EXPECT_EQ(even.lift(-3.0), -2.0);
  // Round-off just above a lattice value never lifts a whole step, and the
  // lift never lowers a bound.
  EXPECT_EQ(even.lift(10.0 + 1e-9), 10.0 + 1e-9);
  EXPECT_EQ(ObjectiveLattice({1.0, 2.0}).lift(9.5), 11.0);
  EXPECT_EQ(ObjectiveLattice({7.0, 0.0}).lift(9.5), 9.5);
  EXPECT_EQ(even.lift(-lp::kInfinity), -lp::kInfinity);
}

/// min unit·sum x_i subject to x_i + x_{i+1} >= 1 around an odd cycle of n,
/// plus a binary y fixed at 1 (presolve eliminates it) costing `fixed_cost`.
/// The LP optimum is fixed_cost + unit·n/2 (every x_i = 1/2), the integer
/// optimum fixed_cost + unit·(n+1)/2, and every feasible objective lies on
/// fixed_cost + unit·Z.
Model odd_cover(int n, double unit, double fixed_cost) {
  Model m;
  std::vector<int> x(n);
  for (int i = 0; i < n; ++i) x[i] = m.add_binary(unit);
  m.add_variable(VarType::kBinary, 1.0, 1.0, fixed_cost);
  for (int i = 0; i < n; ++i) {
    m.add_constraint({{x[i], 1.0}, {x[(i + 1) % n], 1.0}}, Sense::kGe, 1.0);
  }
  return m;
}

TEST(Lattice, SameOptimumWithFewerNodes) {
  const Model m = odd_cover(9, 2.0, 0.0);
  for (const bool presolve : {true, false}) {
    SCOPED_TRACE(presolve);
    BnbOptions plain;
    plain.presolve = presolve;
    BnbOptions lifted = plain;
    lifted.objective_lattice = {0.0, 2.0};
    const MipResult a = solve(m, plain);
    const MipResult b = solve(m, lifted);
    ASSERT_EQ(a.status, MipStatus::kOptimal);
    ASSERT_EQ(b.status, MipStatus::kOptimal);
    EXPECT_EQ(a.objective, 10.0);
    EXPECT_EQ(b.objective, a.objective);
    EXPECT_EQ(b.best_bound, b.objective);
    EXPECT_LT(b.nodes, a.nodes);
  }
}

TEST(Lattice, NonzeroOffsetSurvivesPresolveFixings) {
  // The fixed y puts the lattice at 3 + 2Z; presolve folds y's cost out of
  // the reduced model, so the reduced lattice must move to 0 + 2Z. Stopped
  // after the root, the reported bound is the root LP bound 12 lifted to 13
  // (the optimum); keeping the lattice at 3 + 2Z in the reduced space would
  // leave it at 12.
  const Model m = odd_cover(9, 2.0, 3.0);
  for (const bool presolve : {true, false}) {
    SCOPED_TRACE(presolve);
    BnbOptions opt;
    opt.presolve = presolve;
    opt.objective_lattice = {3.0, 2.0};
    const MipResult full = solve(m, opt);
    ASSERT_EQ(full.status, MipStatus::kOptimal);
    EXPECT_EQ(full.objective, 13.0);
    EXPECT_EQ(full.best_bound, 13.0);

    opt.node_limit = 1;
    opt.warm_start = std::vector<double>(10, 1.0);  // objective 21
    const MipResult stopped = solve(m, opt);
    EXPECT_EQ(stopped.status, MipStatus::kFeasible);
    EXPECT_EQ(stopped.objective, 21.0);
    EXPECT_EQ(stopped.best_bound, 13.0);
  }
}

TEST(Lattice, MaximizationLiftsTheUpperBoundDown) {
  // max -(odd_cover objective), on -1 + 4Z: the root LP bound -19 lowers to
  // -21, the optimum. (Read in the minimization sense without the sign
  // flip, the lattice would be 3 + 4Z, which holds 19.)
  const Model m = odd_cover(9, 4.0, 1.0);
  Model neg;
  for (int v = 0; v < m.num_variables(); ++v) {
    neg.add_variable(m.type(v), m.lower(v), m.upper(v), -m.objective(v));
  }
  for (const Constraint& c : m.constraints()) {
    neg.add_constraint(c.terms, c.sense, c.rhs);
  }
  neg.set_maximize(true);
  for (const bool presolve : {true, false}) {
    SCOPED_TRACE(presolve);
    BnbOptions opt;
    opt.presolve = presolve;
    opt.objective_lattice = {-1.0, 4.0};
    opt.node_limit = 1;
    opt.warm_start = std::vector<double>(10, 1.0);
    const MipResult r = solve(neg, opt);
    EXPECT_EQ(r.status, MipStatus::kFeasible);
    EXPECT_EQ(r.objective, -37.0);
    EXPECT_EQ(r.best_bound, -21.0);
  }
}

TEST(Lattice, StepZeroLeavesTheSearchUntouched) {
  // g = 0 (every coordinate offset zero) declares no lattice: whatever the
  // offset, the search and its answer are those of a solve without one.
  const Model m = odd_cover(9, 2.0, 3.0);
  for (const long limit : {1L, 1'000'000L}) {
    SCOPED_TRACE(limit);
    BnbOptions plain;
    plain.node_limit = limit;
    BnbOptions zero = plain;
    zero.objective_lattice = {7.0, 0.0};
    const MipResult a = solve(m, plain);
    const MipResult b = solve(m, zero);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.objective, b.objective);
    EXPECT_EQ(a.best_bound, b.best_bound);
  }
}

/// Parameterized property: covering problems min sum x_i, x_i + x_{i+1} >= 1
/// on a cycle of n nodes have optimum ceil(n/2).
class BnbCycleCover : public ::testing::TestWithParam<int> {};

TEST_P(BnbCycleCover, MatchesClosedForm) {
  const int n = GetParam();
  Model m;
  std::vector<int> x;
  for (int i = 0; i < n; ++i) x.push_back(m.add_binary(1.0));
  for (int i = 0; i < n; ++i) {
    m.add_constraint({{x[i], 1.0}, {x[(i + 1) % n], 1.0}}, Sense::kGe, 1.0);
  }
  const MipResult r = solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, (n + 1) / 2, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Cycles, BnbCycleCover,
                         ::testing::Values(3, 4, 5, 7, 10, 13));

}  // namespace
}  // namespace xring::milp
