// Softmin routing translation (paper §VI, Figure 2, Equation 3).
//
// Converts a vector of learned edge weights into a full routing strategy:
// for each flow (s,t) the graph is pruned to a DAG, each vertex's distance
// to the sink is computed on the pruned graph, and the splitting ratio of
// each out-edge is softmin(edge weight + neighbour's distance) — so
// shorter detours receive exponentially more traffic, controlled by the
// spread parameter gamma.
#pragma once

#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/prune.hpp"
#include "routing/routing.hpp"

namespace gddr::routing {

// softmin(x)_i = exp(-gamma x_i) / sum_j exp(-gamma x_j)   (paper Eq. 3).
// Numerically stabilised; requires a non-empty input and gamma > 0.
std::vector<double> softmin(std::span<const double> x, double gamma);

struct SoftminOptions {
  // Spread parameter: larger gamma concentrates traffic on the shortest
  // paths; smaller gamma spreads it.  Paper leaves the value learned or
  // tuned; 2.0 is a robust default (see bench_gamma_ablation).
  double gamma = 2.0;
  // DAG conversion algorithm.  The default is the downhill
  // (distance-to-sink) DAG: it provably retains every progress-making
  // edge, giving softmin real multipath to work with, and admits an exact
  // destination-based fast path.  kFrontierMeet is the paper's Figure-3
  // algorithm; under widespread weight ties it degenerates to near-trees
  // (see bench_prune_ablation), which is why it is not the default here.
  PruneMode prune_mode = PruneMode::kDistanceToSink;
};

// Derives a complete routing for every (s,t) pair from per-edge weights
// (size num_edges, all > 0).  The result is loop-free per flow and
// satisfies the §IV-A constraints for any demand matrix.
Routing softmin_routing(const graph::DiGraph& g,
                        const std::vector<double>& weights,
                        const SoftminOptions& options);
Routing softmin_routing(const graph::DiGraph& g,
                        const std::vector<double>& weights);

// Reference per-pair translation: prunes a DAG for every (s,t) flow under
// `options.prune_mode` and derives that pair's ratios on it, skipping
// pairs where t is unreachable from s.  softmin_routing dispatches here
// for every mode except kDistanceToSink, whose destination-based fast
// path must produce identical ratios at traffic-carrying vertices (a
// property the tests check edge-for-edge).
Routing softmin_routing_generic(const graph::DiGraph& g,
                                const std::vector<double>& weights,
                                const SoftminOptions& options);

// Derives a routing from *per-destination* edge weights — the paper's
// §V-C intermediate action space of size |V| x |E| (between the full
// per-flow space and the single-weight-vector space).  Each destination t
// is translated independently with its own weight vector
// `weights_by_dest[t]` using the downhill (distance-to-sink) DAG; rows
// may be empty for destinations that receive no traffic, in which case
// they fall back to unit weights.
Routing softmin_routing_per_destination(
    const graph::DiGraph& g,
    const std::vector<std::vector<double>>& weights_by_dest,
    const SoftminOptions& options);

// The edge-weight range raw actions map onto, in training and serving
// alike.  It is deliberately narrow: with softmin spread gamma ~ 2, a max
// weight delta of 2.5 already expresses ~150:1 path preferences while
// keeping the reward landscape smooth enough for PPO (a wide range such
// as [0.1, 10] turns softmin into a hard argmin almost everywhere and
// gradients vanish).  perfbench/cpp/replay.cpp passes the literals
// 0.5, 3.0; they must stay equal to these.
inline constexpr double kMinEdgeWeight = 0.5;
inline constexpr double kMaxEdgeWeight = 3.0;

// Maps raw agent actions in [-1,1] to strictly positive edge weights
// usable by softmin_routing (affine map to [min_weight, max_weight]).
std::vector<double> weights_from_actions(std::span<const double> actions,
                                         double min_weight,
                                         double max_weight);

}  // namespace gddr::routing
