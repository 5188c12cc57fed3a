// The GDDR data-driven-routing environment (paper §V, Figure 1).
//
// One environment timestep:
//  * the agent observes the previous `memory` demand matrices (as a
//    flattened history for MLP policies and as per-node incoming/outgoing
//    sums, paper Eq. 4, for GNN policies),
//  * it emits one weight per edge (paper §V-C action space of size |E|),
//  * the weights are translated into a routing via softmin routing with
//    DAG pruning (paper §VI),
//  * the routing is simulated on the *new* demand matrix and the reward is
//    -U_max_agent / U_max_optimal (paper Eq. 2), with the optimum computed
//    by the multicommodity-flow LP and memoised.
//
// The environment can hold several scenarios (graph + sequences); each
// reset picks one through its EpisodeCursor, which is how multi-topology
// generalisation training works (paper §VIII-D, Figure 8).
#pragma once

#include <memory>
#include <vector>

#include "core/episode_cursor.hpp"
#include "core/scenario.hpp"
#include "mcf/cache.hpp"
#include "rl/env.hpp"
#include "routing/softmin.hpp"

namespace gddr::core {

// GNN node-feature encoding (paper §V-B).  kInOutSums is the paper's
// choice: per history step, each vertex carries (sum of outgoing demand,
// sum of incoming demand) — O(1) per vertex, which is what lets one GNN
// run on any topology.  kFullDemandRows keeps each vertex's full demand
// row and column (O(|V|) per vertex) — more information, but the feature
// width is tied to one topology, forfeiting generalisation; it exists for
// the ablation that justifies the compression.
enum class NodeFeatureMode { kInOutSums, kFullDemandRows };

// Action-space translation (paper §V-C).  kEdgeWeights is the paper's
// final choice: one weight per edge (|E| values).  kPerDestinationWeights
// is the intermediate destination-only reduction the paper considered and
// rejected as "still too large" (|V| x |E| values, destination-major);
// it exists so the rejection can be tested with learning
// (bench_action_space_learning).
enum class ActionSpace { kEdgeWeights, kPerDestinationWeights };

// Actions translate under the default routing::SoftminOptions.
struct EnvConfig {
  int memory = 5;  // demand-history length (paper: 5)
  NodeFeatureMode node_features = NodeFeatureMode::kInOutSums;
  ActionSpace action_space = ActionSpace::kEdgeWeights;
  // Hard per-episode step cap (0 = uncapped).  An episode cut by the cap
  // — like one ending because the demand sequence ran out — is a
  // truncation, not a terminal: StepResult::truncated is set and the
  // terminal observation returned so GAE can bootstrap from V(s_T).
  int max_episode_steps = 0;
};

class RoutingEnv final : public rl::Env {
 public:
  using Mode = EpisodeCursor::Mode;

  // Throws std::invalid_argument on the scenario checks of EpisodeCursor.
  RoutingEnv(std::vector<Scenario> scenarios, EnvConfig config,
             std::uint64_t seed);

  // Train mode samples (scenario, train sequence) randomly; test mode
  // cycles deterministically through every (scenario, test sequence) pair.
  void set_mode(Mode mode) { cursor_.set_mode(mode); }

  rl::Observation reset() override;
  StepResult step(std::span<const double> action) override;
  int action_dim() const override;

  // Checkpoint support (rl::Env contract): the complete dynamic state —
  // the cursor's prefix (EpisodeCursor::write_state), then i32 t, i32
  // episode steps, f64 last ratio — as an opaque blob.  restore_state
  // validates every field against the configured scenarios and throws
  // util::IoError naming the offending field, leaving the env unchanged
  // on failure.
  std::vector<std::uint8_t> save_state() const override;
  void restore_state(std::span<const std::uint8_t> blob) override;

  // U_max_agent / U_max_optimal of the most recent step (the quantity the
  // paper's Figures 6 and 8 plot; reward is its negation).
  double last_ratio() const { return last_ratio_; }

  const graph::DiGraph& current_graph() const {
    return cursor_.scenario().graph;
  }
  const Scenario& current_scenario() const { return cursor_.scenario(); }
  int episode_length() const;  // steps per episode in the current scenario

  // Parallel-evaluation support: a test *unit* is one (scenario, test
  // sequence) pair — one episode here — the granularity at which
  // evaluation is farmed out to workers.  seek_test_unit positions the
  // deterministic test sweep so the next reset() starts unit `unit`;
  // requires kTest mode.
  std::size_t num_test_units() const { return cursor_.num_test_units(); }
  int episodes_in_unit(std::size_t /*unit*/) const { return 1; }
  void seek_test_unit(std::size_t unit) { cursor_.seek_test_unit(unit); }

  mcf::OptimalCache& cache() { return cursor_.cache(); }
  // See EpisodeCursor: vectorised instances share one LP cache.
  std::shared_ptr<mcf::OptimalCache> shared_cache() const {
    return cursor_.shared_cache();
  }
  void set_shared_cache(std::shared_ptr<mcf::OptimalCache> cache) {
    cursor_.set_shared_cache(std::move(cache));
  }

  // Builds the observation for position `t` (the action decided there is
  // evaluated on demand matrix index t).  Exposed for the iterative
  // environment and tests.
  static rl::Observation build_observation(
      const Scenario& scenario, const traffic::DemandSequence& seq, int t,
      int memory,
      NodeFeatureMode node_features = NodeFeatureMode::kInOutSums);

 private:
  EpisodeCursor cursor_;
  EnvConfig config_;
  int t_ = 0;                    // index of the DM the next action routes
  int episode_steps_ = 0;        // steps taken in the current episode
  double last_ratio_ = 0.0;
};

// U_max_agent / U_max_opt of `strategy` on `dm` (optimum memoised in
// `cache`), or 1.0 when the optimum is 0: the paper's Eq.-2 reward
// negated, and the score of fixed schemes in evaluation.
double utilisation_ratio(const graph::DiGraph& g,
                         const routing::Routing& strategy,
                         const traffic::DemandMatrix& dm,
                         mcf::OptimalCache& cache);

// Builds `n` independent RoutingEnv instances over the same scenarios for
// vectorised collection: env i is seeded `seed + i` (its own scenario /
// sequence sampling stream) and all instances share one LP cache.
std::vector<std::unique_ptr<RoutingEnv>> make_vec_envs(
    const std::vector<Scenario>& scenarios, const EnvConfig& config,
    std::uint64_t seed, int n);

}  // namespace gddr::core
