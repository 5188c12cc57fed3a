#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "lp/simplex.hpp"
#include "mcf/cache.hpp"
#include "mcf/fptas.hpp"
#include "mcf/optimal.hpp"
#include "obs/metrics.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/fault.hpp"

namespace gddr::mcf {
namespace {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

DiGraph two_parallel_paths() {
  // 0 -> 1 directly (capacity 10) and via 2 (capacity 10 each hop).
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(0, 2, 10.0);
  g.add_edge(2, 1, 10.0);
  return g;
}

// The textbook per-(s,t) formulation of the paper's §II-A: one flow
// variable per (commodity, edge), |V|^2|E| in all.  Returns the optimal
// U_max; the reference the destination-aggregated LP is checked against.
double solve_optimal_per_commodity(const DiGraph& g, const DemandMatrix& dm) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("per-commodity: demand/graph size mismatch");
  }
  const int n = g.num_nodes();
  const int ne = g.num_edges();

  struct Commodity {
    NodeId s;
    NodeId t;
    double d;
  };
  std::vector<Commodity> commodities;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId t = 0; t < n; ++t) {
      if (s != t && dm.at(s, t) > 0.0) {
        commodities.push_back({s, t, dm.at(s, t)});
      }
    }
  }
  if (commodities.empty()) return 0.0;

  lp::LinearProgram prog;
  const int u_var = prog.add_variable(1.0);
  std::vector<int> block(commodities.size());
  for (size_t i = 0; i < commodities.size(); ++i) {
    block[i] = prog.num_variables();
    for (EdgeId e = 0; e < ne; ++e) prog.add_variable(0.0);
  }
  auto fvar = [&](size_t i, EdgeId e) { return block[i] + e; };

  for (size_t i = 0; i < commodities.size(); ++i) {
    const auto& c = commodities[i];
    for (NodeId v = 0; v < n; ++v) {
      if (v == c.t) continue;  // sink absorption implied
      std::vector<std::pair<int, double>> terms;
      for (EdgeId e : g.out_edges(v)) terms.emplace_back(fvar(i, e), 1.0);
      for (EdgeId e : g.in_edges(v)) terms.emplace_back(fvar(i, e), -1.0);
      const double rhs = (v == c.s) ? c.d : 0.0;
      prog.add_constraint(terms, lp::Relation::kEq, rhs);
    }
  }
  for (EdgeId e = 0; e < ne; ++e) {
    std::vector<std::pair<int, double>> terms;
    terms.emplace_back(u_var, -g.edge(e).capacity);
    for (size_t i = 0; i < commodities.size(); ++i) {
      terms.emplace_back(fvar(i, e), 1.0);
    }
    prog.add_constraint(terms, lp::Relation::kLe, 0.0);
  }

  const lp::Solution sol = prog.solve();
  if (sol.status != lp::SolveStatus::kOptimal) {
    throw std::runtime_error("per-commodity LP not optimal: " +
                             lp::to_string(sol.status));
  }
  return sol.x[static_cast<size_t>(u_var)];
}

TEST(Optimal, SingleEdgeUtilisation) {
  DiGraph g(2);
  g.add_edge(0, 1, 10.0);
  DemandMatrix dm(2);
  dm.set(0, 1, 5.0);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.u_max, 0.5, 1e-7);
}

TEST(Optimal, SplitsAcrossParallelPaths) {
  // 16 units from 0 to 1; splitting 8/8 gives U = 0.8, all on one path
  // would give 1.6.  The LP must split.
  const DiGraph g = two_parallel_paths();
  DemandMatrix dm(3);
  dm.set(0, 1, 16.0);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.u_max, 0.8, 1e-7);
}

TEST(Optimal, OverloadedNetworkExceedsOne) {
  DiGraph g(2);
  g.add_edge(0, 1, 10.0);
  DemandMatrix dm(2);
  dm.set(0, 1, 25.0);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  EXPECT_NEAR(r.u_max, 2.5, 1e-7);
}

TEST(Optimal, ZeroDemandZeroUtilisation) {
  const DiGraph g = two_parallel_paths();
  const OptimalResult r = solve_optimal(g, DemandMatrix(3));
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(r.u_max, 0.0);
}

TEST(Optimal, FlowConservationHolds) {
  const DiGraph g = topo::abilene();
  util::Rng rng(3);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  // For each destination t and node v != t: net outflow == demand v->t.
  for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto& flow = r.flow_by_dest[static_cast<size_t>(t)];
    if (flow.empty()) continue;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (v == t) continue;
      double net = 0.0;
      for (graph::EdgeId e : g.out_edges(v)) {
        net += flow[static_cast<size_t>(e)];
      }
      for (graph::EdgeId e : g.in_edges(v)) {
        net -= flow[static_cast<size_t>(e)];
      }
      EXPECT_NEAR(net, dm.at(v, t), 1e-4);
    }
  }
}

TEST(Optimal, UtilisationConsistentWithFlows) {
  const DiGraph g = topo::abilene();
  util::Rng rng(4);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const OptimalResult r = solve_optimal(g, dm);
  ASSERT_TRUE(r.feasible);
  const auto util = edge_utilisation(g, r);
  double max_util = 0.0;
  for (double u : util) max_util = std::max(max_util, u);
  EXPECT_NEAR(max_util, r.u_max, 1e-5);
}

TEST(Optimal, SizeMismatchThrows) {
  EXPECT_THROW(solve_optimal(two_parallel_paths(), DemandMatrix(5)),
               std::invalid_argument);
}

// The destination-aggregated LP must agree with the textbook
// per-commodity LP (paper §II-A) — the core exactness claim of the
// aggregation (DESIGN.md §4).
class AggregationEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(AggregationEquivalence, MatchesPerCommodityFormulation) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  const DiGraph g = topo::erdos_renyi(6, 0.4, rng);
  traffic::BimodalParams params;
  params.pair_density = 0.5;
  const DemandMatrix dm = traffic::bimodal_matrix(6, params, rng);
  const OptimalResult agg = solve_optimal(g, dm);
  ASSERT_TRUE(agg.feasible);
  const double per_commodity = solve_optimal_per_commodity(g, dm);
  EXPECT_NEAR(agg.u_max, per_commodity, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationEquivalence,
                         ::testing::Range(0, 10));

// FPTAS cross-check: 1/max_concurrent_flow approximates the LP optimum.
class FptasAgreement : public ::testing::TestWithParam<int> {};

TEST_P(FptasAgreement, WithinGuarantee) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) + 77);
  const DiGraph g = topo::erdos_renyi(8, 0.35, rng);
  const DemandMatrix dm =
      traffic::bimodal_matrix(8, traffic::BimodalParams{}, rng);
  const OptimalResult lp = solve_optimal(g, dm);
  ASSERT_TRUE(lp.feasible);
  FptasOptions opt;
  opt.epsilon = 0.05;
  const double approx = approx_optimal_u_max(g, dm, opt);
  // approx is an over-estimate of U* within the (1-3eps) guarantee.
  EXPECT_GE(approx, lp.u_max * (1.0 - 1e-6));
  EXPECT_LE(approx, lp.u_max / (1.0 - 3.0 * opt.epsilon) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FptasAgreement, ::testing::Range(0, 8));

TEST(Fptas, BracketsOptimumWhenShortestPathIsFarFromIt) {
  // One direct edge 0 -> 1 plus five parallel two-hop paths, all capacity
  // 10, and 60 units from 0 to 1: shortest-path routing puts everything
  // on the direct edge (U_sp = 6) while the optimum splits six ways
  // (U* = 1).  The pre-scaled problem's lambda* is 6, far above 1.
  DiGraph g(7);
  g.add_edge(0, 1, 10.0);
  for (int mid = 2; mid < 7; ++mid) {
    g.add_edge(0, mid, 10.0);
    g.add_edge(mid, 1, 10.0);
  }
  DemandMatrix dm(7);
  dm.set(0, 1, 60.0);
  const OptimalResult lp = solve_optimal(g, dm);
  ASSERT_TRUE(lp.feasible);
  ASSERT_NEAR(lp.u_max, 1.0, 1e-7);
  for (const double eps : {0.05, 0.1}) {
    FptasOptions opt;
    opt.epsilon = eps;
    const double approx = approx_optimal_u_max(g, dm, opt);
    EXPECT_GE(approx, lp.u_max * (1.0 - 1e-9)) << "eps " << eps;
    EXPECT_LE(approx, lp.u_max / (1.0 - 3.0 * eps) * (1.0 + 1e-9))
        << "eps " << eps;
  }
}

// ---- shortest-path-tree start basis ----

// Counts the solver's start fallbacks; the registry is process-global, so
// each test starts and ends with it reset and disabled.
class TreeStart : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::Registry::instance().enable();
  }
  void TearDown() override {
    util::FaultInjector::instance().disarm();
    obs::Registry::instance().disable();
    obs::Registry::instance().reset();
  }
  static std::uint64_t fallbacks() {
    return obs::Registry::instance().counter("lp/start_fallbacks");
  }
};

// The tree-started aggregated LP against the two-phase per-commodity LP
// on every catalogue topology, under the experiments' traffic model; the
// FPTAS value brackets both.
TEST_F(TreeStart, MatchesPerCommodityOnCatalogue) {
  const traffic::BimodalParams params =
      core::experiment_scenario_params().demand;
  FptasOptions fptas;
  fptas.epsilon = 0.05;
  for (const std::string& name : topo::catalogue_names()) {
    const DiGraph g = topo::by_name(name);
    for (const std::uint64_t seed : {11U, 12U}) {
      util::Rng rng(seed);
      const DemandMatrix dm =
          traffic::bimodal_matrix(g.num_nodes(), params, rng);
      const OptimalResult tree = solve_optimal(g, dm);
      ASSERT_EQ(tree.provenance, SolveProvenance::kExact) << name;
      const double per_commodity = solve_optimal_per_commodity(g, dm);
      EXPECT_NEAR(tree.u_max, per_commodity, 1e-9 * per_commodity)
          << name << " seed " << seed;
      const double approx = approx_optimal_u_max(g, dm, fptas);
      EXPECT_GE(approx, std::max(tree.u_max, per_commodity) * (1.0 - 1e-9))
          << name << " seed " << seed;
      EXPECT_LE(approx, std::min(tree.u_max, per_commodity) /
                            (1.0 - 3.0 * fptas.epsilon) * (1.0 + 1e-9))
          << name << " seed " << seed;
    }
  }
  // Every aggregated solve above ran from its tree start.
  EXPECT_EQ(fallbacks(), 0U);
}

TEST_F(TreeStart, UnreachableNodeFallsBackToTwoPhase) {
  // Node 2 has no out-edges, so it cannot reach destination 1 and row
  // (1, 2) has no tree edge.
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 0, 10.0);
  g.add_edge(0, 2, 10.0);
  DemandMatrix dm(3);
  dm.set(0, 1, 5.0);
  const OptimalResult routable = solve_optimal(g, dm);
  EXPECT_EQ(fallbacks(), 1U);
  ASSERT_EQ(routable.provenance, SolveProvenance::kExact);
  EXPECT_NEAR(routable.u_max, 0.5, 1e-12);

  // Demand from node 2 cannot be routed at all: still a failure, not an
  // approximation.
  dm.set(2, 1, 3.0);
  const OptimalResult unroutable = solve_optimal(g, dm);
  EXPECT_EQ(fallbacks(), 2U);
  EXPECT_EQ(unroutable.provenance, SolveProvenance::kFailed);
  EXPECT_FALSE(unroutable.feasible);
}

// A simplex breakdown (the injected kLpSolve fault) still degrades to the
// FPTAS.
TEST_F(TreeStart, SimplexFailureStillReachesFptas) {
  const DiGraph g = topo::by_name("GeantLike");
  util::Rng rng(5);
  const DemandMatrix dm = traffic::bimodal_matrix(
      g.num_nodes(), core::experiment_scenario_params().demand, rng);
  const OptimalResult exact = solve_optimal(g, dm);
  ASSERT_EQ(exact.provenance, SolveProvenance::kExact);

  util::FaultInjector::instance().arm("lp_solve@1");
  const OptimalResult approx = solve_optimal(g, dm);
  EXPECT_EQ(approx.provenance, SolveProvenance::kApproximate);
  EXPECT_GE(approx.u_max, exact.u_max * (1.0 - 1e-9));
  EXPECT_LE(approx.u_max, exact.u_max /
                              (1.0 - 3.0 * FptasOptions{}.epsilon) *
                              (1.0 + 1e-9));
  EXPECT_EQ(fallbacks(), 0U);
}

TEST(Fptas, ZeroDemand) {
  const DiGraph g = two_parallel_paths();
  EXPECT_EQ(max_concurrent_flow(g, DemandMatrix(3)), 0.0);
  EXPECT_EQ(approx_optimal_u_max(g, DemandMatrix(3)), 0.0);
}

TEST(Fptas, BadEpsilonThrows) {
  const DiGraph g = two_parallel_paths();
  DemandMatrix dm(3);
  dm.set(0, 1, 1.0);
  FptasOptions opt;
  opt.epsilon = 0.0;
  EXPECT_THROW(max_concurrent_flow(g, dm, opt), std::invalid_argument);
  opt.epsilon = 0.7;
  EXPECT_THROW(max_concurrent_flow(g, dm, opt), std::invalid_argument);
}

TEST(Cache, HitsOnRepeatedQueries) {
  OptimalCache cache;
  const DiGraph g = topo::abilene();
  util::Rng rng(9);
  const DemandMatrix dm =
      traffic::bimodal_matrix(g.num_nodes(), traffic::BimodalParams{}, rng);
  const double first = cache.u_max(g, dm);
  const double second = cache.u_max(g, dm);
  EXPECT_EQ(first, second);
  EXPECT_EQ(cache.misses(), 1U);
  EXPECT_EQ(cache.hits(), 1U);
  EXPECT_EQ(cache.size(), 1U);
}

TEST(Cache, DistinguishesDemands) {
  OptimalCache cache;
  const DiGraph g = two_parallel_paths();
  DemandMatrix a(3);
  a.set(0, 1, 4.0);
  DemandMatrix b(3);
  b.set(0, 1, 8.0);
  EXPECT_NE(cache.u_max(g, a), cache.u_max(g, b));
  EXPECT_EQ(cache.size(), 2U);
}

TEST(Cache, DistinguishesGraphs) {
  OptimalCache cache;
  DemandMatrix dm(3);
  dm.set(0, 1, 16.0);
  const DiGraph g1 = two_parallel_paths();
  DiGraph g2 = two_parallel_paths();
  g2.add_edge(1, 0, 10.0);  // extra edge changes the fingerprint
  cache.u_max(g1, dm);
  cache.u_max(g2, dm);
  EXPECT_EQ(cache.size(), 2U);
}

TEST(Cache, ClearResets) {
  OptimalCache cache;
  DemandMatrix dm(3);
  dm.set(0, 1, 1.0);
  cache.u_max(two_parallel_paths(), dm);
  cache.clear();
  EXPECT_EQ(cache.size(), 0U);
  EXPECT_EQ(cache.hits(), 0U);
  EXPECT_EQ(cache.misses(), 0U);
}

TEST(Fingerprint, SensitiveToCapacity) {
  DiGraph a(2);
  a.add_edge(0, 1, 10.0);
  DiGraph b(2);
  b.add_edge(0, 1, 20.0);
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(Fingerprint, SensitiveToDemandValue) {
  DemandMatrix a(2);
  a.set(0, 1, 1.0);
  DemandMatrix b(2);
  b.set(0, 1, 2.0);
  EXPECT_NE(demand_fingerprint(a), demand_fingerprint(b));
}

TEST(Fingerprint, StableAcrossCopies) {
  const DiGraph g = topo::abilene();
  const DiGraph copy = g;
  EXPECT_EQ(graph_fingerprint(g), graph_fingerprint(copy));
}

TEST(Fingerprint, EdgeRemoveThenReAddHashesDifferently) {
  // Documented guarantee (see cache.hpp): the fingerprint digests edges
  // in storage order, so removing an edge and re-adding the same
  // (src, dst, capacity) appends it at the end — a different
  // representation, hence a different hash.  operator== shares the
  // order-sensitivity, so fingerprint-equal still tracks graph-equal.
  DiGraph g(3);
  g.add_edge(0, 1, 10.0);
  g.add_edge(1, 2, 20.0);
  g.add_edge(2, 0, 30.0);
  const std::uint64_t before = graph_fingerprint(g);

  std::vector<bool> remove(static_cast<std::size_t>(g.num_edges()), false);
  remove[0] = true;  // drop 0 -> 1
  DiGraph readded = g.without_edges(remove);
  readded.add_edge(0, 1, 10.0);  // same edge, now last in storage order

  EXPECT_NE(graph_fingerprint(readded), before);
  EXPECT_FALSE(readded == g);
  // Same mutation sequence -> same representation -> same hash.
  DiGraph readded2 = g.without_edges(remove);
  readded2.add_edge(0, 1, 10.0);
  EXPECT_EQ(graph_fingerprint(readded2), graph_fingerprint(readded));
}

TEST(Fingerprint, NodeRemovalCompactionAliasesNativeGraph) {
  // Documented guarantee (see cache.hpp): without_node renumbers the
  // survivors, so the compacted graph is the *same representation* as a
  // natively built graph with those nodes/edges and must hash equal.
  // Callers tracking identity across mutations carry their own epoch.
  DiGraph g(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 0, 3.0);
  const DiGraph compacted = g.without_node(0);

  DiGraph native(2);
  native.add_edge(0, 1, 2.0);  // old 1 -> 2, renumbered down by one
  EXPECT_EQ(graph_fingerprint(compacted), graph_fingerprint(native));
  EXPECT_NE(graph_fingerprint(compacted), graph_fingerprint(g));
}

}  // namespace
}  // namespace gddr::mcf
