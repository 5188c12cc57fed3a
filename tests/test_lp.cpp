#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace gddr::lp {
namespace {

TEST(Simplex, TrivialMinimum) {
  // min x subject to x >= 3  ->  x = 3.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 3.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 3.0, 1e-9);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, TwoVariableKnownOptimum) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic example).
  // As minimisation: min -3x - 5y; optimum x=2, y=6, objective -36.
  LinearProgram prog;
  const int x = prog.add_variable(-3.0);
  const int y = prog.add_variable(-5.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  prog.add_constraint({{y, 2.0}}, Relation::kLe, 12.0);
  prog.add_constraint({{x, 3.0}, {y, 2.0}}, Relation::kLe, 18.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -36.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)], 2.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<size_t>(y)], 6.0, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // min x + y s.t. x + y = 10, x <= 4  ->  x=4, y=6? No: min x+y on the
  // line x+y=10 is 10 everywhere; check feasibility and objective.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  const int y = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 10.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 4.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 10.0, 1e-7);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)] + sol.x[static_cast<size_t>(y)],
              10.0, 1e-7);
  EXPECT_LE(sol.x[static_cast<size_t>(x)], 4.0 + 1e-7);
}

TEST(Simplex, InfeasibleDetected) {
  // x <= 1 and x >= 2 cannot both hold.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  EXPECT_EQ(prog.solve().status, SolveStatus::kInfeasible);
}

TEST(Simplex, UnboundedDetected) {
  // min -x with x only bounded below.
  LinearProgram prog;
  const int x = prog.add_variable(-1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 0.0);
  EXPECT_EQ(prog.solve().status, SolveStatus::kUnbounded);
}

TEST(Simplex, NegativeRhsNormalised) {
  // min x s.t. -x <= -5  (i.e. x >= 5).
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, -1.0}}, Relation::kLe, -5.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 5.0, 1e-9);
}

TEST(Simplex, DuplicateTermsSummed) {
  // min x s.t. x + x >= 6 -> x = 3.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}, {x, 1.0}}, Relation::kGe, 6.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 3.0, 1e-9);
}

TEST(Simplex, UnknownVariableRejected) {
  LinearProgram prog;
  prog.add_variable(1.0);
  EXPECT_THROW(prog.add_constraint({{3, 1.0}}, Relation::kLe, 1.0),
               std::out_of_range);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic cycling-prone problem (Beale); Bland fallback must terminate.
  LinearProgram prog;
  const int x1 = prog.add_variable(-0.75);
  const int x2 = prog.add_variable(150.0);
  const int x3 = prog.add_variable(-0.02);
  const int x4 = prog.add_variable(6.0);
  prog.add_constraint({{x1, 0.25}, {x2, -60.0}, {x3, -0.04}, {x4, 9.0}},
                      Relation::kLe, 0.0);
  prog.add_constraint({{x1, 0.5}, {x2, -90.0}, {x3, -0.02}, {x4, 3.0}},
                      Relation::kLe, 0.0);
  prog.add_constraint({{x3, 1.0}}, Relation::kLe, 1.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, -0.05, 1e-7);
}

TEST(Simplex, RedundantConstraintsHandled) {
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);
  prog.add_constraint({{x, 1.0}}, Relation::kGe, 2.0);  // duplicate
  prog.add_constraint({{x, 2.0}}, Relation::kGe, 4.0);  // scaled duplicate
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-9);
}

TEST(Simplex, ZeroObjectiveFeasibilityProblem) {
  LinearProgram prog;
  const int x = prog.add_variable(0.0);
  const int y = prog.add_variable(0.0);
  prog.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 5.0);
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.x[static_cast<size_t>(x)] + sol.x[static_cast<size_t>(y)],
              5.0, 1e-9);
}

TEST(Simplex, ToStringCoversAllStatuses) {
  EXPECT_EQ(to_string(SolveStatus::kOptimal), "optimal");
  EXPECT_EQ(to_string(SolveStatus::kInfeasible), "infeasible");
  EXPECT_EQ(to_string(SolveStatus::kUnbounded), "unbounded");
  EXPECT_EQ(to_string(SolveStatus::kIterationLimit), "iteration-limit");
}

// Property test: random transportation problems have a known optimum equal
// to max(total supply needed) when costs are uniform.
class RandomLp : public ::testing::TestWithParam<int> {};

TEST_P(RandomLp, TransportationProblemFeasibleAndBounded) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  // 3 suppliers x 4 consumers; balanced supply/demand.
  const int ns = 3;
  const int nc = 4;
  std::vector<double> supply(ns);
  std::vector<double> demand(nc, 0.0);
  double total = 0.0;
  for (auto& s : supply) {
    s = 1.0 + rng.uniform() * 9.0;
    total += s;
  }
  for (int c = 0; c < nc - 1; ++c) {
    demand[static_cast<size_t>(c)] = total * rng.uniform() / nc;
  }
  double assigned = 0.0;
  for (int c = 0; c < nc - 1; ++c) assigned += demand[static_cast<size_t>(c)];
  demand[nc - 1] = total - assigned;

  LinearProgram prog;
  std::vector<std::vector<int>> x(static_cast<size_t>(ns),
                                  std::vector<int>(static_cast<size_t>(nc)));
  for (int s = 0; s < ns; ++s) {
    for (int c = 0; c < nc; ++c) {
      x[static_cast<size_t>(s)][static_cast<size_t>(c)] =
          prog.add_variable(1.0 + rng.uniform());  // random positive costs
    }
  }
  for (int s = 0; s < ns; ++s) {
    std::vector<std::pair<int, double>> terms;
    for (int c = 0; c < nc; ++c) {
      terms.emplace_back(x[static_cast<size_t>(s)][static_cast<size_t>(c)],
                         1.0);
    }
    prog.add_constraint(terms, Relation::kEq, supply[static_cast<size_t>(s)]);
  }
  for (int c = 0; c < nc; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int s = 0; s < ns; ++s) {
      terms.emplace_back(x[static_cast<size_t>(s)][static_cast<size_t>(c)],
                         1.0);
    }
    prog.add_constraint(terms, Relation::kEq, demand[static_cast<size_t>(c)]);
  }
  const Solution sol = prog.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  // Objective bounded by [min_cost * total, max_cost * total].
  EXPECT_GE(sol.objective, total * 1.0 - 1e-6);
  EXPECT_LE(sol.objective, total * 2.0 + 1e-6);
  // All flows non-negative and supplies exactly shipped.
  for (int s = 0; s < ns; ++s) {
    double shipped = 0.0;
    for (int c = 0; c < nc; ++c) {
      const double v = sol.x[static_cast<size_t>(
          x[static_cast<size_t>(s)][static_cast<size_t>(c)])];
      EXPECT_GE(v, -1e-9);
      shipped += v;
    }
    EXPECT_NEAR(shipped, supply[static_cast<size_t>(s)], 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLp, ::testing::Range(0, 12));

// ---- start basis ----

// min c.x s.t. [B | N] x = b, x >= 0, built so that the first m columns
// (B: unit diagonal, random upper triangle) are the unique optimal basis:
// b = B x_B with x_B > 0, and every N column's reduced cost is positive.
// N's entries are larger than B's, so phase 1 pivots N columns in first
// and phase 2 has to bring B back; started from B, phase 2 has nothing
// to do.
struct TriangularLp {
  LinearProgram prog;
  std::vector<int> optimal_basis;  // row r -> column r
};

TriangularLp triangular_lp(std::uint64_t seed) {
  util::Rng rng(seed);
  const int m = 8;
  const int extra = 12;
  std::vector<std::vector<double>> a(m, std::vector<double>(m + extra, 0.0));
  for (int i = 0; i < m; ++i) {
    a[i][i] = 1.0;
    for (int j = i + 1; j < m; ++j) a[i][j] = 0.5 * rng.uniform();
    for (int j = m; j < m + extra; ++j) a[i][j] = 1.0 + rng.uniform();
  }
  std::vector<double> cost_b(m);
  std::vector<double> b(m, 0.0);
  std::vector<double> x_b(m);
  for (int j = 0; j < m; ++j) {
    cost_b[j] = 1.0 + rng.uniform();
    x_b[j] = 1.0 + rng.uniform();
  }
  for (int i = 0; i < m; ++i) {
    for (int j = i; j < m; ++j) b[i] += a[i][j] * x_b[j];
  }
  // Simplex multipliers y with y^T B = c_B (B is upper triangular).
  std::vector<double> y(m);
  for (int j = 0; j < m; ++j) {
    double sum = cost_b[j];
    for (int i = 0; i < j; ++i) sum -= y[i] * a[i][j];
    y[j] = sum;
  }
  TriangularLp lp;
  for (int j = 0; j < m + extra; ++j) {
    double cost = 0.0;
    if (j < m) {
      cost = cost_b[j];
    } else {
      for (int i = 0; i < m; ++i) cost += y[i] * a[i][j];
      cost += 0.5 + rng.uniform();  // positive reduced cost
    }
    lp.prog.add_variable(cost);
  }
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < m + extra; ++j) {
      if (a[i][j] != 0.0) terms.emplace_back(j, a[i][j]);
    }
    lp.prog.add_constraint(terms, Relation::kEq, b[i]);
  }
  for (int r = 0; r < m; ++r) lp.optimal_basis.push_back(r);
  return lp;
}

// Reads the pivot and fallback counters around each solve, so a start that
// is silently ignored shows up as the cold pivot count.
class StartBasis : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::Registry::instance().enable();
  }
  void TearDown() override {
    obs::Registry::instance().disable();
    obs::Registry::instance().reset();
  }

  struct Counted {
    Solution solution;
    std::uint64_t pivots = 0;
    std::uint64_t fallbacks = 0;
  };

  static Counted solve_counted(const LinearProgram& prog,
                               std::span<const int> start) {
    auto& registry = obs::Registry::instance();
    const std::uint64_t pivots = registry.counter("lp/pivots");
    const std::uint64_t fallbacks = registry.counter("lp/start_fallbacks");
    Counted out;
    out.solution = prog.solve(LinearProgram::Options{}, start);
    out.pivots = registry.counter("lp/pivots") - pivots;
    out.fallbacks = registry.counter("lp/start_fallbacks") - fallbacks;
    return out;
  }

  // A rejected start must give exactly the cold two-phase result.
  static void expect_cold_fallback(const LinearProgram& prog,
                                   std::span<const int> start) {
    const Counted cold = solve_counted(prog, {});
    const Counted started = solve_counted(prog, start);
    EXPECT_EQ(started.fallbacks, 1U);
    ASSERT_EQ(started.solution.status, cold.solution.status);
    EXPECT_EQ(started.solution.objective, cold.solution.objective);
    EXPECT_EQ(started.solution.x, cold.solution.x);
    // The whole cold solve ran, after whatever the start pivoted in.
    EXPECT_GE(started.pivots, cold.pivots);
  }
};

TEST_F(StartBasis, ValidStartMatchesColdWithFewerPivots) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const TriangularLp lp = triangular_lp(seed);
    const Counted cold = solve_counted(lp.prog, {});
    const Counted started = solve_counted(lp.prog, lp.optimal_basis);
    ASSERT_EQ(cold.solution.status, SolveStatus::kOptimal) << seed;
    ASSERT_EQ(started.solution.status, SolveStatus::kOptimal) << seed;
    EXPECT_NEAR(started.solution.objective, cold.solution.objective,
                1e-9 * std::abs(cold.solution.objective))
        << seed;
    EXPECT_EQ(started.fallbacks, 0U) << seed;
    // The start's m pivots are the whole solve; the cold solve spends at
    // least m in phase 1 alone.
    EXPECT_EQ(started.pivots, lp.optimal_basis.size()) << seed;
    EXPECT_LT(started.pivots, cold.pivots) << seed;
  }
}

TEST_F(StartBasis, SingularStartFallsBack) {
  // Column 0 named for two rows: after the first pivot it is zero in the
  // second row.
  const TriangularLp lp = triangular_lp(1);
  std::vector<int> start = lp.optimal_basis;
  start[1] = start[0];
  expect_cold_fallback(lp.prog, start);
}

TEST_F(StartBasis, WrongSizeStartFallsBack) {
  const TriangularLp lp = triangular_lp(2);
  std::vector<int> start = lp.optimal_basis;
  start.pop_back();
  expect_cold_fallback(lp.prog, start);
}

TEST_F(StartBasis, EqualityRowWithoutColumnFallsBack) {
  // -1 keeps a row's slack; an equality row has none.
  const TriangularLp lp = triangular_lp(3);
  std::vector<int> start = lp.optimal_basis;
  start[4] = -1;
  expect_cold_fallback(lp.prog, start);
}

TEST_F(StartBasis, InfeasibleStartFallsBack) {
  // min x + 2y s.t. x + y = 4, x <= 1.  Starting with x basic in the
  // equality row puts x at 4 and the second row's slack at -3.
  LinearProgram prog;
  const int x = prog.add_variable(1.0);
  const int y = prog.add_variable(2.0);
  prog.add_constraint({{x, 1.0}, {y, 1.0}}, Relation::kEq, 4.0);
  prog.add_constraint({{x, 1.0}}, Relation::kLe, 1.0);
  const std::vector<int> start = {x, -1};
  expect_cold_fallback(prog, start);
  const Solution sol = prog.solve(LinearProgram::Options{}, start);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 7.0, 1e-9);

  // The feasible choice, y in the equality row, is kept.
  const Counted started = solve_counted(prog, std::vector<int>{y, -1});
  EXPECT_EQ(started.fallbacks, 0U);
  ASSERT_EQ(started.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(started.solution.objective, 7.0, 1e-9);
}

}  // namespace
}  // namespace gddr::lp
