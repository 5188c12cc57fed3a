// Routing strategies and their simulation (paper §IV-A).
//
// A routing R_{v,(s,t)} : Gamma(v) -> [0,1] gives, for every flow (s,t) and
// vertex v, the fraction of that flow's traffic transiting v that is
// forwarded along each outgoing edge.  A valid routing must lose no
// traffic before the destination (ratios at a transit vertex sum to 1 over
// the vertex's used out-edges) and absorb everything at the destination
// (all ratios zero at t).
//
// `simulate` propagates a demand matrix through a routing and returns the
// per-link loads and the max link utilisation U_max — the quantity the
// whole system optimises (paper Eq. 1).
#pragma once

#include <vector>

#include "graph/digraph.hpp"
#include "traffic/demand.hpp"

namespace gddr::routing {

class Routing {
 public:
  Routing() = default;
  // Creates an all-zero routing for a graph with `num_nodes` nodes and
  // `num_edges` edges.
  Routing(int num_nodes, int num_edges);

  int num_nodes() const { return n_; }
  int num_edges() const { return ne_; }

  // Flow (s,t) index into the ratio table.
  int flow_index(int s, int t) const { return s * n_ + t; }

  double ratio(int s, int t, graph::EdgeId e) const {
    return ratios_[static_cast<size_t>(flow_index(s, t))]
                  [static_cast<size_t>(e)];
  }
  void set_ratio(int s, int t, graph::EdgeId e, double value);

  // All per-edge ratios for one flow.
  const std::vector<double>& flow_ratios(int s, int t) const {
    return ratios_[static_cast<size_t>(flow_index(s, t))];
  }

 private:
  int n_ = 0;
  int ne_ = 0;
  std::vector<std::vector<double>> ratios_;
};

struct SimulationResult {
  // Traffic volume per edge.
  std::vector<double> link_load;
  // load / capacity per edge.
  std::vector<double> link_utilisation;
  // max over edges of link_utilisation (paper Eq. 1).
  double u_max = 0.0;
  // Total demand that reached its destination; simulate() verifies this
  // matches the injected demand.
  double delivered = 0.0;
};

// Propagates `dm` through `routing` on `g`.  Each flow's positive-ratio
// edge set must be acyclic (guaranteed by the softmin translation's DAG
// pruning); a cycle, or delivered traffic off the injected total by more
// than a relative 1e-6, raises std::runtime_error.
SimulationResult simulate(const graph::DiGraph& g, const Routing& routing,
                          const traffic::DemandMatrix& dm);

// Validates the §IV-A constraints for every flow with demand in `dm`:
// (1) at every vertex that carries traffic of flow (s,t) and is not t, the
//     out-ratios sum to 1;
// (2) at t all out-ratios are 0.
// Returns true and leaves `error` empty when valid.
bool validate(const graph::DiGraph& g, const Routing& routing,
              const traffic::DemandMatrix& dm, std::string* error);

// Serving-path pre-simulation validator: for every flow with demand in
// `dm`, checks destination absorption and that every ratio is finite and
// in [0,1].  It deliberately covers only what simulate() cannot —
// NaN ratios evade the conservation check (NaN comparisons are false) and
// absorption violations are invisible to the propagation sweep — while
// loops and row-sum violations are left to simulate()'s Kahn and
// conservation checks.  The pair covers the full §IV-A contract at a
// fraction of validate()'s cost (a plain O(flows x E) scan, no
// reachability fixed point).  Never throws: returns false with `error`
// describing the first violation.
bool validate_for_serving(const graph::DiGraph& g, const Routing& routing,
                          const traffic::DemandMatrix& dm,
                          std::string* error);

}  // namespace gddr::routing
