#include "routing/routing.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "graph/algorithms.hpp"
#include "graph/graph_invariants.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

Routing::Routing(int num_nodes, int num_edges)
    : n_(num_nodes),
      ne_(num_edges),
      ratios_(static_cast<size_t>(num_nodes) * static_cast<size_t>(num_nodes),
              std::vector<double>(static_cast<size_t>(num_edges), 0.0)) {}

void Routing::set_ratio(int s, int t, EdgeId e, double value) {
  if (value < -1e-12 || value > 1.0 + 1e-12) {
    throw std::invalid_argument("Routing::set_ratio: ratio outside [0,1]");
  }
  ratios_[static_cast<size_t>(flow_index(s, t))][static_cast<size_t>(e)] =
      std::clamp(value, 0.0, 1.0);
}

namespace {

// Relative tolerance of simulate()'s delivered-traffic conservation check.
constexpr double kConservationTolerance = 1e-6;

// Propagates `amount` units of flow (s,t) through the routing's positive
// edges, adding to `load`.  The flow's edge subgraph must be acyclic; a
// topological sweep in distance order is not available (ratios are
// arbitrary), so Kahn's algorithm runs on the positive-ratio subgraph.
// Returns the amount absorbed at t; a loop throws std::runtime_error.
double propagate_flow(const DiGraph& g, const Routing& routing, NodeId s,
                      NodeId t, double amount, std::vector<double>& load) {
  const auto& ratios = routing.flow_ratios(s, t);
  std::vector<bool> mask(static_cast<size_t>(g.num_edges()), false);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (ratios[static_cast<size_t>(e)] > 0.0) {
      mask[static_cast<size_t>(e)] = true;
    }
  }
  const auto order = graph::topological_order(g, mask);
  if (!order.has_value()) {
    throw std::runtime_error("simulate: flow (" + std::to_string(s) + "," +
                             std::to_string(t) + ") has a routing loop");
  }
  // Kahn's output must be a valid topological order of the positive-ratio
  // subgraph or the sweep below drops/double-counts traffic.
  GDDR_VALIDATE(graph::check_topological_order(g, mask, *order,
                                               "routing/simulate/toposort"));
  std::vector<double> node_amount(static_cast<size_t>(g.num_nodes()), 0.0);
  node_amount[static_cast<size_t>(s)] = amount;
  double absorbed = 0.0;
  for (NodeId v : *order) {
    const double a = node_amount[static_cast<size_t>(v)];
    if (a <= 0.0) continue;
    if (v == t) {
      absorbed += a;
      continue;
    }
    for (EdgeId e : g.out_edges(v)) {
      const double r = ratios[static_cast<size_t>(e)];
      if (r <= 0.0) continue;
      const double sent = a * r;
      load[static_cast<size_t>(e)] += sent;
      node_amount[static_cast<size_t>(g.edge(e).dst)] += sent;
    }
  }
  return absorbed;
}

}  // namespace

SimulationResult simulate(const DiGraph& g, const Routing& routing,
                          const DemandMatrix& dm) {
  if (routing.num_nodes() != g.num_nodes() ||
      routing.num_edges() != g.num_edges() ||
      dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("simulate: size mismatch");
  }
  SimulationResult result;
  result.link_load.assign(static_cast<size_t>(g.num_edges()), 0.0);

  double injected = 0.0;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t) continue;
      const double d = dm.at(s, t);
      if (d <= 0.0) continue;
      injected += d;
      result.delivered +=
          propagate_flow(g, routing, s, t, d, result.link_load);
    }
  }
  if (injected > 0.0) {
    const double loss = std::abs(injected - result.delivered) / injected;
    if (loss > kConservationTolerance) {
      throw std::runtime_error(
          "simulate: conservation violated, delivered " +
          std::to_string(result.delivered) + " of " +
          std::to_string(injected));
    }
  }

  result.link_utilisation.assign(static_cast<size_t>(g.num_edges()), 0.0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    result.link_utilisation[static_cast<size_t>(e)] =
        result.link_load[static_cast<size_t>(e)] / g.edge(e).capacity;
    result.u_max =
        std::max(result.u_max, result.link_utilisation[static_cast<size_t>(e)]);
  }
  return result;
}

bool validate(const DiGraph& g, const Routing& routing,
              const DemandMatrix& dm, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t || dm.at(s, t) <= 0.0) continue;
      const auto& ratios = routing.flow_ratios(s, t);
      // Constraint (2): absorption at the destination.
      for (EdgeId e : g.out_edges(t)) {
        if (ratios[static_cast<size_t>(e)] > 1e-9) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") forwards traffic out of its destination");
        }
      }
      // Constraint (1): conservation at vertices that carry traffic.  Which
      // vertices carry traffic depends on the upstream ratios, so propagate
      // reachability through positive-ratio edges from s.
      std::vector<bool> reaches(static_cast<size_t>(g.num_nodes()), false);
      reaches[static_cast<size_t>(s)] = true;
      // Positive-ratio subgraph is small; a fixed-point sweep suffices and
      // tolerates cycles (validate() must not crash on invalid input).
      for (int pass = 0; pass < g.num_nodes(); ++pass) {
        bool changed = false;
        for (EdgeId e = 0; e < g.num_edges(); ++e) {
          if (ratios[static_cast<size_t>(e)] > 0.0) {
            const auto& ed = g.edge(e);
            if (reaches[static_cast<size_t>(ed.src)] &&
                !reaches[static_cast<size_t>(ed.dst)]) {
              reaches[static_cast<size_t>(ed.dst)] = true;
              changed = true;
            }
          }
        }
        if (!changed) break;
      }
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (!reaches[static_cast<size_t>(v)] || v == t) continue;
        double sum = 0.0;
        for (EdgeId e : g.out_edges(v)) {
          sum += ratios[static_cast<size_t>(e)];
        }
        if (std::abs(sum - 1.0) > 1e-6) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") ratios at vertex " + std::to_string(v) + " sum to " +
                      std::to_string(sum));
        }
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

bool validate_for_serving(const DiGraph& g, const Routing& routing,
                          const DemandMatrix& dm, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  if (routing.num_nodes() != g.num_nodes() ||
      routing.num_edges() != g.num_edges() ||
      dm.num_nodes() != g.num_nodes()) {
    return fail("routing/demand size does not match the graph");
  }
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s == t || dm.at(s, t) <= 0.0) continue;
      const auto& ratios = routing.flow_ratios(s, t);
      for (EdgeId e = 0; e < g.num_edges(); ++e) {
        const double r = ratios[static_cast<size_t>(e)];
        // Written to also reject NaN (every comparison with NaN is false).
        // NaN ratios are the one corruption strict simulation cannot see:
        // a NaN load poisons `delivered`, and the conservation comparison
        // against NaN is silently false.
        if (!(r >= 0.0 && r <= 1.0)) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") has ratio " + std::to_string(r) + " on edge " +
                      std::to_string(e));
        }
      }
      for (EdgeId e : g.out_edges(t)) {
        if (ratios[static_cast<size_t>(e)] > 1e-9) {
          return fail("flow (" + std::to_string(s) + "," + std::to_string(t) +
                      ") forwards traffic out of its destination");
        }
      }
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace gddr::routing
