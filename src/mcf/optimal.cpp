#include "mcf/optimal.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "lp/simplex.hpp"
#include "mcf/fptas.hpp"
#include "mcf/mcf_invariants.hpp"
#include "util/contract.hpp"
#include "util/fault.hpp"

namespace gddr::mcf {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

const char* to_string(SolveProvenance provenance) {
  switch (provenance) {
    case SolveProvenance::kExact:
      return "exact";
    case SolveProvenance::kApproximate:
      return "approximate";
    case SolveProvenance::kFailed:
      return "failed";
  }
  return "unknown";
}

namespace {

// A feasible starting basis for the destination-aggregated LP, one entry
// per row in solve_optimal's row order (the conservation rows of each
// destination, then one capacity row per edge).  All traffic to t follows
// the hop-count in-tree of t: row (t, v) makes x_t(first edge of v's path)
// basic, at the demand sum of v's subtree (>= 0).  U is basic in the
// capacity row of the busiest tree edge e* (highest load/c, lowest id on
// ties); every other capacity row keeps its slack, c_e U - load_e >= 0.
// Each destination's block is triangular and U has -c_e* in row e*, so the
// basis is nonsingular.  A node that cannot reach t leaves its row at -1,
// which the solver rejects in favour of the two-phase solve.
std::vector<int> shortest_path_tree_basis(
    const DiGraph& g, const DemandMatrix& dm,
    const std::vector<NodeId>& dests, const std::vector<int>& block_start,
    int u_var) {
  const int n = g.num_nodes();
  const int ne = g.num_edges();
  const std::vector<double> hops = graph::unit_weights(g);
  std::vector<int> start;
  start.reserve(dests.size() * static_cast<size_t>(n - 1) +
                static_cast<size_t>(ne));
  std::vector<double> load(static_cast<size_t>(ne), 0.0);
  std::vector<NodeId> order(static_cast<size_t>(n));
  std::vector<double> subtree(static_cast<size_t>(n));
  for (NodeId t : dests) {
    const graph::ShortestPaths sp = graph::dijkstra_to(g, t, hops);
    // Leaves first: a node's subtree sum is final before it is passed on.
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
      return sp.dist[static_cast<size_t>(a)] > sp.dist[static_cast<size_t>(b)];
    });
    for (NodeId v = 0; v < n; ++v) {
      subtree[static_cast<size_t>(v)] = dm.at(v, t);
    }
    for (NodeId v : order) {
      const EdgeId e = sp.parent_edge[static_cast<size_t>(v)];
      if (e == graph::kInvalidEdge) continue;  // t itself, or unreachable
      const double flow = subtree[static_cast<size_t>(v)];
      subtree[static_cast<size_t>(g.edge(e).dst)] += flow;
      load[static_cast<size_t>(e)] += flow;
    }
    const int block = block_start[static_cast<size_t>(t)];
    for (NodeId v = 0; v < n; ++v) {
      if (v == t) continue;
      const EdgeId e = sp.parent_edge[static_cast<size_t>(v)];
      start.push_back(e == graph::kInvalidEdge ? -1 : block + e);
    }
  }
  EdgeId busiest = graph::kInvalidEdge;
  double busiest_util = -1.0;
  for (EdgeId e = 0; e < ne; ++e) {
    const double util = load[static_cast<size_t>(e)] / g.edge(e).capacity;
    if (util > busiest_util) {
      busiest_util = util;
      busiest = e;
    }
  }
  for (EdgeId e = 0; e < ne; ++e) start.push_back(e == busiest ? u_var : -1);
  return start;
}

}  // namespace

OptimalResult solve_optimal(const DiGraph& g, const DemandMatrix& dm,
                            const SolveOptions& options) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("solve_optimal: demand/graph size mismatch");
  }
  const int n = g.num_nodes();
  const int ne = g.num_edges();

  // Destinations that actually receive traffic.
  std::vector<NodeId> dests;
  for (NodeId t = 0; t < n; ++t) {
    if (dm.in_sum(t) > 0.0) dests.push_back(t);
  }

  OptimalResult result;
  result.flow_by_dest.assign(static_cast<size_t>(n), {});
  if (dests.empty()) {
    result.feasible = true;
    result.provenance = SolveProvenance::kExact;
    result.u_max = 0.0;
    return result;
  }

  lp::LinearProgram prog;
  const int u_var = prog.add_variable(1.0);  // minimise U_max
  // x[t][e] laid out per destination block.
  std::vector<int> block_start(static_cast<size_t>(n), -1);
  for (NodeId t : dests) {
    block_start[static_cast<size_t>(t)] = prog.num_variables();
    for (EdgeId e = 0; e < ne; ++e) prog.add_variable(0.0);
  }
  auto xvar = [&](NodeId t, EdgeId e) {
    return block_start[static_cast<size_t>(t)] + e;
  };

  // Conservation: net outflow of traffic-to-t at v equals D[v][t], v != t.
  for (NodeId t : dests) {
    for (NodeId v = 0; v < n; ++v) {
      if (v == t) continue;
      std::vector<std::pair<int, double>> terms;
      for (EdgeId e : g.out_edges(v)) terms.emplace_back(xvar(t, e), 1.0);
      for (EdgeId e : g.in_edges(v)) terms.emplace_back(xvar(t, e), -1.0);
      prog.add_constraint(terms, lp::Relation::kEq, dm.at(v, t));
    }
  }
  // Capacity: total flow on e at most U * c(e).
  for (EdgeId e = 0; e < ne; ++e) {
    std::vector<std::pair<int, double>> terms;
    terms.emplace_back(u_var, -g.edge(e).capacity);
    for (NodeId t : dests) terms.emplace_back(xvar(t, e), 1.0);
    prog.add_constraint(terms, lp::Relation::kLe, 0.0);
  }

  // Fault injection (site lp_solve) simulates a simplex breakdown so
  // tests can exercise the fallback chain deterministically.
  lp::Solution sol;
  if (util::inject(util::FaultSite::kLpSolve)) {
    sol.status = lp::SolveStatus::kIterationLimit;
  } else {
    sol = prog.solve(
        shortest_path_tree_basis(g, dm, dests, block_start, u_var));
  }

  if (sol.status == lp::SolveStatus::kInfeasible) {
    // Unroutable demand: the FPTAS cannot route it either, so this is a
    // genuine failure, not a fallback case.
    result.feasible = false;
    result.provenance = SolveProvenance::kFailed;
    return result;
  }
  if (sol.status != lp::SolveStatus::kOptimal) {
    // Iteration budget exhausted, numerical stall or injected fault —
    // degrade to the Fleischer FPTAS.  It yields only U_max (no flow
    // decomposition), within a 1/(1 - 3*eps) factor of optimal.
    if (options.allow_fptas_fallback) {
      const double u_approx = approx_optimal_u_max(g, dm);
      if (std::isfinite(u_approx) && u_approx > 0.0) {
        result.feasible = true;
        result.provenance = SolveProvenance::kApproximate;
        result.u_max = u_approx;
        return result;
      }
    }
    result.feasible = false;
    result.provenance = SolveProvenance::kFailed;
    return result;
  }
  result.feasible = true;
  result.provenance = SolveProvenance::kExact;
  result.u_max = sol.x[static_cast<size_t>(u_var)];
  for (NodeId t : dests) {
    auto& row = result.flow_by_dest[static_cast<size_t>(t)];
    row.resize(static_cast<size_t>(ne));
    for (EdgeId e = 0; e < ne; ++e) {
      row[static_cast<size_t>(e)] =
          sol.x[static_cast<size_t>(xvar(t, e))];
    }
  }
  // The exact solution must route exactly the demand (conservation) and
  // report the busiest edge of its own decomposition as U_max.
  GDDR_VALIDATE(check_flow_conservation(g, dm, result, 1e-6,
                                        "mcf/optimal/conservation"));
  GDDR_VALIDATE(check_umax_consistency(g, result, 1e-6,
                                       "mcf/optimal/umax"));
  return result;
}

std::vector<double> edge_utilisation(const DiGraph& g,
                                     const OptimalResult& result) {
  std::vector<double> util(static_cast<size_t>(g.num_edges()), 0.0);
  for (const auto& row : result.flow_by_dest) {
    for (size_t e = 0; e < row.size(); ++e) util[e] += row[e];
  }
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    util[static_cast<size_t>(e)] /= g.edge(e).capacity;
  }
  return util;
}

}  // namespace gddr::mcf
