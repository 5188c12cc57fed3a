#include "routing/softmin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

#include "graph/algorithms.hpp"
#include "routing/routing_invariants.hpp"
#include "util/contract.hpp"

namespace gddr::routing {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;

std::vector<double> softmin(std::span<const double> x, double gamma) {
  if (x.empty()) throw std::invalid_argument("softmin: empty input");
  if (!(gamma > 0.0)) throw std::invalid_argument("softmin: gamma <= 0");
  const double lo = *std::min_element(x.begin(), x.end());
  std::vector<double> out(x.size());
  double sum = 0.0;
  for (size_t i = 0; i < x.size(); ++i) {
    out[i] = std::exp(-gamma * (x[i] - lo));
    sum += out[i];
  }
  for (double& v : out) v /= sum;
  return out;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Splitting ratios below this are zeroed and the remainder renormalised;
// keeps per-flow DAGs sparse without measurably changing U_max.
constexpr double kRatioFloor = 1e-6;

// Reverse Dijkstra to `t` restricted to masked edges: dist[v] = weighted
// distance from v to t inside the pruned DAG.
std::vector<double> masked_dist_to(const DiGraph& g, NodeId t,
                                   const std::vector<double>& weights,
                                   const std::vector<bool>& mask) {
  const auto n = static_cast<size_t>(g.num_nodes());
  std::vector<double> dist(n, kInf);
  std::vector<bool> done(n, false);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[static_cast<size_t>(t)] = 0.0;
  pq.emplace(0.0, t);
  while (!pq.empty()) {
    const auto [d, v] = pq.top();
    pq.pop();
    if (done[static_cast<size_t>(v)]) continue;
    done[static_cast<size_t>(v)] = true;
    for (EdgeId e : g.in_edges(v)) {
      if (!mask[static_cast<size_t>(e)]) continue;
      const NodeId u = g.edge(e).src;
      const double nd = d + weights[static_cast<size_t>(e)];
      if (nd < dist[static_cast<size_t>(u)]) {
        dist[static_cast<size_t>(u)] = nd;
        pq.emplace(nd, u);
      }
    }
  }
  return dist;
}

}  // namespace

namespace {

// Fast path for PruneMode::kDistanceToSink.  The downhill DAG depends only
// on the destination, and restricting it to s->t paths only removes edges
// at vertices unreachable from s — vertices that carry no traffic of flow
// (s,t) anyway.  The splitting ratios at every traffic-carrying vertex are
// therefore identical across sources, so the whole translation needs one
// reverse Dijkstra per destination instead of one graph pruning per
// (source, destination) pair.
// Fills the splitting ratios of every flow destined to `t` using the
// downhill DAG induced by `weights` (see the header for why the ratios
// are shared across sources).
void fill_destination_ratios(const DiGraph& g, NodeId t,
                             const std::vector<double>& weights,
                             const SoftminOptions& options,
                             Routing& routing) {
  constexpr double kTieTol = 1e-12;
  const auto sp = graph::dijkstra_to(g, t, weights);
  const auto& dist = sp.dist;
  // Only sources that can reach t carry flow (s,t); writing ratios for the
  // rest would both disagree with the generic per-pair path (which skips
  // unreachable pairs) and waste O(V·deg) writes per destination.
  std::vector<NodeId> sources;
  sources.reserve(static_cast<size_t>(g.num_nodes()));
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (s != t && dist[static_cast<size_t>(s)] != kInf) sources.push_back(s);
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == t || dist[static_cast<size_t>(v)] == kInf) continue;
    std::vector<EdgeId> out;
    std::vector<double> cost;
    for (EdgeId e : g.out_edges(v)) {
      const NodeId u = g.edge(e).dst;
      if (dist[static_cast<size_t>(u)] == kInf) continue;
      // Downhill filter: strictly decreasing distance to the sink.
      if (!(dist[static_cast<size_t>(v)] >
            dist[static_cast<size_t>(u)] + kTieTol)) {
        continue;
      }
      out.push_back(e);
      cost.push_back(weights[static_cast<size_t>(e)] +
                     dist[static_cast<size_t>(u)]);
    }
    if (out.empty()) continue;
    std::vector<double> ratios = softmin(cost, options.gamma);
    double sum = 0.0;
    for (double& r : ratios) {
      if (r < kRatioFloor) r = 0.0;
      sum += r;
    }
    if (sum <= 0.0) {
      const size_t best = static_cast<size_t>(
          std::min_element(cost.begin(), cost.end()) - cost.begin());
      std::fill(ratios.begin(), ratios.end(), 0.0);
      ratios[best] = 1.0;
      sum = 1.0;
    }
    // The renormalised shares form one splitting row; it must be
    // row-stochastic or downstream simulation loses traffic at v.
    GDDR_VALIDATE([&] {
      std::vector<double> shares(out.size());
      for (size_t i = 0; i < out.size(); ++i) shares[i] = ratios[i] / sum;
      double row_sum = 0.0;
      if (!util::contract::row_stochastic(shares, 1e-9, &row_sum)) {
        util::contract::violate_invariant(
            "softmin shares are row-stochastic", "routing/softmin/row",
            util::contract::describe("dest", t, "vertex", v, "row_sum",
                                     row_sum));
      }
    }());
    for (size_t i = 0; i < out.size(); ++i) {
      const double share = ratios[i] / sum;
      if (share <= 0.0) continue;
      for (const NodeId s : sources) routing.set_ratio(s, t, out[i], share);
    }
  }
}

Routing softmin_routing_downhill(const DiGraph& g,
                                 const std::vector<double>& weights,
                                 const SoftminOptions& options) {
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    fill_destination_ratios(g, t, weights, options, routing);
  }
  GDDR_VALIDATE(
      check_softmin_routing(g, routing, 1e-9, "routing/softmin/downhill"));
  return routing;
}

}  // namespace

Routing softmin_routing_per_destination(
    const DiGraph& g, const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options) {
  if (weights_by_dest.size() != static_cast<size_t>(g.num_nodes())) {
    throw std::invalid_argument(
        "softmin_routing_per_destination: need one weight row per node");
  }
  const std::vector<double> unit(static_cast<size_t>(g.num_edges()), 1.0);
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    const auto& row = weights_by_dest[static_cast<size_t>(t)];
    if (!row.empty() && row.size() != static_cast<size_t>(g.num_edges())) {
      throw std::invalid_argument(
          "softmin_routing_per_destination: weight row size mismatch");
    }
    fill_destination_ratios(g, t, row.empty() ? unit : row, options,
                            routing);
  }
  GDDR_VALIDATE(check_softmin_routing(g, routing, 1e-9,
                                      "routing/softmin/per-destination"));
  return routing;
}

Routing softmin_routing(const DiGraph& g, const std::vector<double>& weights,
                        const SoftminOptions& options) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument("softmin_routing: weight size mismatch");
  }
  if (options.prune_mode == PruneMode::kDistanceToSink) {
    return softmin_routing_downhill(g, weights, options);
  }
  return softmin_routing_generic(g, weights, options);
}

Routing softmin_routing_generic(const DiGraph& g,
                                const std::vector<double>& weights,
                                const SoftminOptions& options) {
  if (weights.size() != static_cast<size_t>(g.num_edges())) {
    throw std::invalid_argument(
        "softmin_routing_generic: weight size mismatch");
  }
  Routing routing(g.num_nodes(), g.num_edges());
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    // Pairs whose sink is unreachable can never carry traffic; skip them
    // (a demand on such a pair would make simulate() fail loudly anyway).
    const auto reach = graph::dijkstra_to(g, t, weights);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      if (s == t || reach.dist[static_cast<size_t>(s)] == kInf) continue;
      // Convert to a DAG for this source-sink pair (paper Fig. 2 line 1).
      const auto mask = prune_dag(g, s, t, weights, options.prune_mode);
      // Distance of each vertex to the sink on the pruned graph.
      const auto dist = masked_dist_to(g, t, weights, mask);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        if (v == t || dist[static_cast<size_t>(v)] == kInf) continue;
        // Out-edge candidates: masked edges whose head still reaches t.
        std::vector<EdgeId> out;
        std::vector<double> cost;
        for (EdgeId e : g.out_edges(v)) {
          if (!mask[static_cast<size_t>(e)]) continue;
          const NodeId u = g.edge(e).dst;
          if (dist[static_cast<size_t>(u)] == kInf) continue;
          out.push_back(e);
          // Edge length + neighbour's distance (paper Fig. 2).
          cost.push_back(weights[static_cast<size_t>(e)] +
                         dist[static_cast<size_t>(u)]);
        }
        if (out.empty()) continue;  // no traffic can arrive here
        std::vector<double> ratios = softmin(cost, options.gamma);
        // Floor tiny ratios and renormalise.
        double sum = 0.0;
        for (double& r : ratios) {
          if (r < kRatioFloor) r = 0.0;
          sum += r;
        }
        if (sum <= 0.0) {
          // Degenerate flooring: fall back to the single best edge.
          const size_t best = static_cast<size_t>(
              std::min_element(cost.begin(), cost.end()) - cost.begin());
          std::fill(ratios.begin(), ratios.end(), 0.0);
          ratios[best] = 1.0;
          sum = 1.0;
        }
        for (size_t i = 0; i < out.size(); ++i) {
          routing.set_ratio(s, t, out[i], ratios[i] / sum);
        }
      }
    }
  }
  GDDR_VALIDATE(
      check_softmin_routing(g, routing, 1e-9, "routing/softmin/generic"));
  return routing;
}

Routing softmin_routing(const DiGraph& g,
                        const std::vector<double>& weights) {
  return softmin_routing(g, weights, SoftminOptions{});
}

std::vector<double> weights_from_actions(std::span<const double> actions,
                                         double min_weight,
                                         double max_weight) {
  if (!(min_weight > 0.0) || !(max_weight > min_weight)) {
    throw std::invalid_argument("weights_from_actions: bad weight range");
  }
  std::vector<double> weights(actions.size());
  for (size_t i = 0; i < actions.size(); ++i) {
    const double a = std::clamp(actions[i], -1.0, 1.0);
    weights[i] = min_weight + (a + 1.0) * 0.5 * (max_weight - min_weight);
  }
  return weights;
}

}  // namespace gddr::routing
