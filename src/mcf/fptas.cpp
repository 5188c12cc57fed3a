#include "mcf/fptas.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "graph/algorithms.hpp"

namespace gddr::mcf {
namespace {

using graph::DiGraph;
using graph::EdgeId;
using graph::NodeId;
using traffic::DemandMatrix;

struct Commodity {
  NodeId s;
  NodeId t;
  double d;
};

// Two bounds on the optimal max utilisation U* from one hop-count
// shortest-path pass: upper = U_sp, the max utilisation when every demand
// takes its shortest path (a feasible routing), and lower, the volume
// bound (each unit of s->t flow crosses at least hops(s,t) edges, so
// U* * sum(c) >= sum(d * hops)).
struct CongestionBounds {
  double upper = 0.0;
  double lower = 0.0;
};

CongestionBounds congestion_bounds(const DiGraph& g, const DemandMatrix& dm) {
  std::vector<double> load(static_cast<size_t>(g.num_edges()), 0.0);
  double volume = 0.0;  // sum of d * hops
  const auto w = graph::unit_weights(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    if (dm.out_sum(s) <= 0.0) continue;
    const auto sp = graph::dijkstra(g, s, w);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      const double d = (s == t) ? 0.0 : dm.at(s, t);
      if (d <= 0.0) continue;
      NodeId v = t;
      while (v != s) {
        const EdgeId pe = sp.parent_edge[static_cast<size_t>(v)];
        if (pe == graph::kInvalidEdge) {
          throw std::runtime_error("fptas: demand pair unreachable");
        }
        load[static_cast<size_t>(pe)] += d;
        volume += d;
        v = g.edge(pe).src;
      }
    }
  }
  CongestionBounds b;
  double total_capacity = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double c = g.edge(e).capacity;
    b.upper = std::max(b.upper, load[static_cast<size_t>(e)] / c);
    total_capacity += c;
  }
  b.lower = volume / total_capacity;
  return b;
}

}  // namespace

double max_concurrent_flow(const DiGraph& g, const DemandMatrix& dm,
                           const FptasOptions& options) {
  if (dm.num_nodes() != g.num_nodes()) {
    throw std::invalid_argument("fptas: demand/graph size mismatch");
  }
  const double eps = options.epsilon;
  if (eps <= 0.0 || eps >= 0.5) {
    throw std::invalid_argument("fptas: epsilon must be in (0, 0.5)");
  }

  std::vector<Commodity> commodities;
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      if (s != t && dm.at(s, t) > 0.0) commodities.push_back({s, t, dm.at(s, t)});
    }
  }
  if (commodities.empty()) return 0.0;

  // Pre-scale by U_sp so the scaled problem's lambda* = U_sp / U* is at
  // least 1; the returned value is unscaled at the end.
  const CongestionBounds bounds = congestion_bounds(g, dm);
  const double u_sp = bounds.upper;
  if (u_sp <= 0.0) return 0.0;
  const double scale = u_sp;  // scaled demand d' = d / u_sp
  for (auto& c : commodities) c.d /= scale;

  const auto m = static_cast<double>(g.num_edges());
  const double delta = (1.0 + eps) * std::pow((1.0 + eps) * m, -1.0 / eps);

  std::vector<double> length(static_cast<size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    length[static_cast<size_t>(e)] = delta / g.edge(e).capacity;
  }
  auto total_length = [&] {
    double d = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      d += length[static_cast<size_t>(e)] * g.edge(e).capacity;
    }
    return d;
  };

  // While the loop runs every edge carries less than c_e * log_ratio, so
  // t completed phases are a feasible flow of value t / log_ratio: t <
  // lambda* * log_ratio.  lambda* = U_sp / U* is unbounded above, so the
  // cap bounds it with U* >= bounds.lower; the cap only guards termination.
  const double log_ratio = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
  const double lambda_upper = u_sp / bounds.lower;
  const double max_phases = std::ceil(lambda_upper * log_ratio) + 1.0;
  int completed_phases = 0;
  while (total_length() < 1.0 && completed_phases < max_phases) {
    for (const auto& c : commodities) {
      double remaining = c.d;
      while (remaining > 1e-15 && total_length() < 1.0) {
        const auto sp = graph::dijkstra(g, c.s, length);
        const auto path = graph::extract_path(g, sp, c.s, c.t);
        if (path.size() < 2) {
          throw std::runtime_error("fptas: commodity unreachable");
        }
        // Bottleneck capacity along the path.
        double bottleneck = std::numeric_limits<double>::infinity();
        std::vector<EdgeId> path_edges;
        for (size_t i = 0; i + 1 < path.size(); ++i) {
          const auto e = g.find_edge(path[i], path[i + 1]);
          path_edges.push_back(*e);
          bottleneck = std::min(bottleneck, g.edge(*e).capacity);
        }
        const double send = std::min(remaining, bottleneck);
        remaining -= send;
        for (EdgeId e : path_edges) {
          length[static_cast<size_t>(e)] *=
              1.0 + eps * send / g.edge(e).capacity;
        }
      }
      if (total_length() >= 1.0) break;
    }
    if (total_length() < 1.0) ++completed_phases;
  }

  const double lambda_scaled =
      static_cast<double>(completed_phases) / log_ratio;
  return lambda_scaled / scale;
}

double approx_optimal_u_max(const DiGraph& g, const DemandMatrix& dm,
                            const FptasOptions& options) {
  const double lambda = max_concurrent_flow(g, dm, options);
  if (lambda <= 0.0) return 0.0;
  return 1.0 / lambda;
}

}  // namespace gddr::mcf
