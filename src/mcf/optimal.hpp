// Optimal multicommodity-flow congestion (paper §II-A, §V-A).
//
// The reward in the GDDR environment compares the agent's max link
// utilisation against the optimum U*_max achievable by any splittable
// routing of the demand matrix.  The paper computes U*_max with an LP on
// top of Google OR-Tools; here the LP is built on src/lp's simplex.
//
// solve_optimal is destination-aggregated.  For each destination t a flow
// variable x_t(e) carries *all* traffic destined to t on edge e; per-node
// conservation injects D[v][t] at every v != t.  This is exact for
// splittable min-max-utilisation MCF (commodities to the same sink can
// be merged without changing link totals, and any merged flow can be
// decomposed back per-source) and has |V||E| variables instead of
// |V|^2|E|.  The simplex starts from a feasible basis written down
// directly — every destination's traffic on its hop-count shortest-path
// in-tree, U at the busiest tree edge's utilisation — so it runs phase 2
// only; when that basis does not exist (a node cannot reach a
// destination) the generic two-phase solve runs instead.  The tests
// validate it against the textbook per-(s,t) formulation of §II-A.
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"

namespace gddr::mcf {

// How a result was obtained — part of the solver fallback chain.  A
// simplex failure (iteration budget, numerical stall, injected fault) no
// longer aborts an experiment: solve_optimal degrades to the Fleischer
// FPTAS and tags the result so callers can distinguish an exact optimum
// from an approximation instead of receiving an exception.
enum class SolveProvenance {
  kExact,        // simplex reached a proven optimum
  kApproximate,  // FPTAS fallback; u_max within its (1 - 3eps) guarantee
  kFailed,       // neither solver produced a usable value
};

const char* to_string(SolveProvenance provenance);

struct SolveOptions {
  // The simplex runs with lp::LinearProgram::solve's size-derived
  // iteration budget; when it is exhausted the fallback chain engages.
  // Disable to make solve_optimal exact-only (callers that need
  // flow_by_dest, which the FPTAS cannot provide).  The fallback runs at
  // the default FptasOptions::epsilon.
  bool allow_fptas_fallback = true;
};

struct OptimalResult {
  bool feasible = false;  // provenance != kFailed
  SolveProvenance provenance = SolveProvenance::kFailed;
  // Optimal max link utilisation; may exceed 1 when demand exceeds what
  // the network can carry without over-subscription.  Under kApproximate
  // provenance it lies in [U*, U* / (1 - 3*FptasOptions{}.epsilon)].
  double u_max = 0.0;
  // flow_by_dest[t][e]: traffic destined to node t crossing edge e in the
  // optimal solution.  Destinations with zero demand have empty rows.
  // Empty under kApproximate provenance (the FPTAS yields only the value).
  std::vector<std::vector<double>> flow_by_dest;
};

// Destination-aggregated optimal congestion LP with FPTAS fallback.
// A genuinely infeasible LP (unroutable demand) is kFailed — no
// approximation can route it either.
OptimalResult solve_optimal(const graph::DiGraph& g,
                            const traffic::DemandMatrix& dm,
                            const SolveOptions& options = {});

// Per-edge utilisation of the optimal solution (|E| entries).
std::vector<double> edge_utilisation(const graph::DiGraph& g,
                                     const OptimalResult& result);

}  // namespace gddr::mcf
