// Quickstart: the GDDR library in ~60 lines.
//
//  1. load a topology,
//  2. generate a cyclical bimodal demand sequence,
//  3. compute the optimal congestion with the multicommodity-flow LP,
//  4. translate edge weights into a softmin routing and simulate it,
//  5. compare against shortest-path routing.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "graph/algorithms.hpp"
#include "mcf/optimal.hpp"
#include "routing/baselines.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/rng.hpp"

int main() {
  using namespace gddr;

  // 1. The Abilene research backbone from the embedded topology catalogue.
  const graph::DiGraph network = topo::abilene();
  std::printf("network: %s with %d nodes and %d directed links\n",
              network.name().c_str(), network.num_nodes(),
              network.num_edges());

  // 2. A demand sequence with temporal regularity (paper §VIII-B).
  util::Rng rng(42);
  traffic::BimodalParams demand_model;
  demand_model.pair_density = 0.3;  // not every pair talks
  const traffic::DemandSequence sequence =
      traffic::cyclical_bimodal_sequence(network.num_nodes(),
                                         /*length=*/20, /*cycle_length=*/5,
                                         demand_model, rng);
  const traffic::DemandMatrix& dm = sequence.front();
  std::printf("demand: %.0f units total across %d node pairs\n", dm.total(),
              network.num_nodes() * (network.num_nodes() - 1));

  // 3. Optimal congestion: the LP lower bound every routing is scored
  //    against (paper Eq. 2 denominator).
  const mcf::OptimalResult optimal = mcf::solve_optimal(network, dm);
  std::printf("optimal max link utilisation U*: %.4f\n", optimal.u_max);

  // 4. A routing strategy from edge weights via softmin translation
  //    (paper §VI).  Equal weights spread traffic over every
  //    progress-making path.
  const std::vector<double> weights(
      static_cast<size_t>(network.num_edges()), 1.0);
  routing::SoftminOptions softmin_options;
  softmin_options.gamma = 2.0;
  const routing::Routing softmin =
      routing::softmin_routing(network, weights, softmin_options);
  const auto softmin_result = routing::simulate(network, softmin, dm);
  std::printf("softmin routing (equal weights): U = %.4f  (%.2fx optimal)\n",
              softmin_result.u_max, softmin_result.u_max / optimal.u_max);

  // 5. Classical shortest-path routing for comparison.
  const routing::Routing sp = routing::shortest_path_routing(network);
  const auto sp_result = routing::simulate(network, sp, dm);
  std::printf("shortest-path routing:           U = %.4f  (%.2fx optimal)\n",
              sp_result.u_max, sp_result.u_max / optimal.u_max);

  std::printf("\nnext steps: bench/bench_fig6_fixed_graph trains a GNN agent "
              "to pick the weights; bench/bench_fig8_generalisation "
              "transfers one agent across topologies.\n");
  return 0;
}
