#include "core/routing_env.hpp"

#include <sstream>
#include <stdexcept>

#include "nn/serialize.hpp"
#include "routing/routing.hpp"
#include "util/error.hpp"

namespace gddr::core {

using rl::Observation;

RoutingEnv::RoutingEnv(std::vector<Scenario> scenarios, EnvConfig config,
                       std::uint64_t seed)
    : cursor_(std::move(scenarios), config.memory, seed, "RoutingEnv"),
      config_(config) {}

int RoutingEnv::episode_length() const {
  return static_cast<int>(cursor_.sequence().size()) - config_.memory;
}

int RoutingEnv::action_dim() const {
  const graph::DiGraph& g = current_graph();
  return config_.action_space == ActionSpace::kEdgeWeights
             ? g.num_edges()
             : g.num_nodes() * g.num_edges();
}

Observation RoutingEnv::build_observation(const Scenario& scenario,
                                          const traffic::DemandSequence& seq,
                                          int t, int memory,
                                          NodeFeatureMode node_features) {
  const graph::DiGraph& g = scenario.graph;
  const int n = g.num_nodes();
  Observation obs;
  obs.num_nodes = n;
  obs.senders.reserve(static_cast<size_t>(g.num_edges()));
  obs.receivers.reserve(static_cast<size_t>(g.num_edges()));
  for (const auto& e : g.edges()) {
    obs.senders.push_back(e.src);
    obs.receivers.push_back(e.dst);
  }

  // Flat observation: the `memory` previous demand matrices, oldest first,
  // every entry divided by the scenario's flat scale (paper §V-B input
  // normalisation).
  obs.flat.reserve(static_cast<size_t>(memory) * n * n);
  // Node features: per history step, either the paper's Eq.-4 compression
  // ((sum outgoing, sum incoming) per vertex) or the full demand row and
  // column of each vertex (ablation mode; see NodeFeatureMode).
  const bool full = node_features == NodeFeatureMode::kFullDemandRows;
  obs.nodes = nn::Tensor(n, full ? 2 * n * memory : 2 * memory);
  for (int h = 0; h < memory; ++h) {
    const auto& dm = seq[static_cast<size_t>(t - memory + h)];
    for (int s = 0; s < n; ++s) {
      for (int d = 0; d < n; ++d) {
        obs.flat.push_back(dm.at(s, d) / scenario.flat_feature_scale);
      }
      if (full) {
        for (int d = 0; d < n; ++d) {
          const double out = s == d ? 0.0 : dm.at(s, d);
          const double in = s == d ? 0.0 : dm.at(d, s);
          obs.nodes.at(s, h * 2 * n + d) =
              static_cast<float>(out / scenario.flat_feature_scale);
          obs.nodes.at(s, h * 2 * n + n + d) =
              static_cast<float>(in / scenario.flat_feature_scale);
        }
      } else {
        obs.nodes.at(s, 2 * h) = static_cast<float>(
            dm.out_sum(s) / scenario.node_feature_scale);
        obs.nodes.at(s, 2 * h + 1) = static_cast<float>(
            dm.in_sum(s) / scenario.node_feature_scale);
      }
    }
  }
  // Edge input: the link's capacity, normalised by the graph's maximum
  // capacity.  The paper's graph model G = (V, E, c) makes capacities
  // known; without this feature a permutation-equivariant GNN cannot
  // distinguish structurally symmetric links of different bandwidths (the
  // paper's Abilene experiments use uniform capacities, where the feature
  // is constant and harmless).
  obs.edges = nn::Tensor(g.num_edges(), 1);
  double max_capacity = 0.0;
  for (const auto& e : g.edges()) {
    max_capacity = std::max(max_capacity, e.capacity);
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    obs.edges.at(e, 0) =
        static_cast<float>(g.edge(e).capacity / max_capacity);
  }
  obs.globals = nn::Tensor(1, 1);
  return obs;
}

Observation RoutingEnv::reset() {
  cursor_.next_sequence();
  t_ = config_.memory;
  episode_steps_ = 0;
  return build_observation(cursor_.scenario(), cursor_.sequence(), t_,
                           config_.memory, config_.node_features);
}

rl::Env::StepResult RoutingEnv::step(std::span<const double> action) {
  const graph::DiGraph& g = current_graph();
  if (static_cast<int>(action.size()) != action_dim()) {
    throw std::invalid_argument("RoutingEnv::step: action size mismatch");
  }
  const auto& seq = cursor_.sequence();
  if (t_ >= static_cast<int>(seq.size())) {
    throw std::logic_error(
        "RoutingEnv::step: episode is over — call reset() first");
  }
  const auto& dm = seq[static_cast<size_t>(t_)];

  routing::Routing strategy;
  if (config_.action_space == ActionSpace::kEdgeWeights) {
    const std::vector<double> weights = routing::weights_from_actions(
        action, routing::kMinEdgeWeight, routing::kMaxEdgeWeight);
    strategy = routing::softmin_routing(g, weights);
  } else {
    // Destination-major |V| x |E| action layout (paper §V-C intermediate).
    std::vector<std::vector<double>> weights_by_dest(
        static_cast<size_t>(g.num_nodes()));
    for (graph::NodeId t = 0; t < g.num_nodes(); ++t) {
      weights_by_dest[static_cast<size_t>(t)] =
          routing::weights_from_actions(
              action.subspan(static_cast<size_t>(t) *
                                 static_cast<size_t>(g.num_edges()),
                             static_cast<size_t>(g.num_edges())),
              routing::kMinEdgeWeight, routing::kMaxEdgeWeight);
    }
    strategy = routing::softmin_routing_per_destination(
        g, weights_by_dest, routing::SoftminOptions{});
  }
  last_ratio_ = utilisation_ratio(g, strategy, dm, cursor_.cache());
  StepResult result;
  result.reward = -last_ratio_;  // paper Eq. 2
  ++t_;
  ++episode_steps_;
  // Both episode endings here are *truncations*: the demand process does
  // not terminate, we merely ran out of sequence (or hit the step cap).
  // The terminal observation is still well-defined (its history window
  // ends at the final routed DM) and is returned so the collector can
  // bootstrap V(s_T) instead of zeroing it.
  const bool out_of_sequence = t_ >= static_cast<int>(seq.size());
  const bool step_capped = config_.max_episode_steps > 0 &&
                           episode_steps_ >= config_.max_episode_steps;
  result.done = out_of_sequence || step_capped;
  result.truncated = result.done;
  // Valid even at t_ == seq.size(): the observation reads the history
  // window [t_ - memory, t_), which ends at the final routed DM.
  result.obs = build_observation(cursor_.scenario(), seq, t_,
                                 config_.memory, config_.node_features);
  return result;
}

std::vector<std::uint8_t> RoutingEnv::save_state() const {
  std::ostringstream os;
  cursor_.write_state(os);
  nn::write_pod(os, static_cast<std::int32_t>(t_));
  nn::write_pod(os, static_cast<std::int32_t>(episode_steps_));
  nn::write_pod(os, last_ratio_);
  const std::string bytes = std::move(os).str();
  return {bytes.begin(), bytes.end()};
}

void RoutingEnv::restore_state(std::span<const std::uint8_t> blob) {
  std::istringstream is(std::string(blob.begin(), blob.end()));
  EpisodeCursor::Position pos = cursor_.read_state(is);
  const auto t = nn::read_pod<std::int32_t>(is, "RoutingEnv t");
  const auto episode_steps =
      nn::read_pod<std::int32_t>(is, "RoutingEnv episode steps");
  const auto last_ratio = nn::read_pod<double>(is, "RoutingEnv last ratio");
  if (is.peek() != std::istream::traits_type::eof()) {
    throw util::IoError("trailing bytes after RoutingEnv state");
  }

  const auto seq_len =
      static_cast<std::int32_t>(cursor_.sequence_at(pos).size());
  if (t < 0 || t > seq_len) {
    throw util::IoError("RoutingEnv t " + std::to_string(t) +
                        " out of range [0, " + std::to_string(seq_len) + "]");
  }
  if (episode_steps < 0) {
    throw util::IoError("negative value in field 'RoutingEnv episode steps'");
  }

  cursor_.restore(std::move(pos));
  t_ = t;
  episode_steps_ = episode_steps;
  last_ratio_ = last_ratio;
}

double utilisation_ratio(const graph::DiGraph& g,
                         const routing::Routing& strategy,
                         const traffic::DemandMatrix& dm,
                         mcf::OptimalCache& cache) {
  const double achieved = routing::simulate(g, strategy, dm).u_max;
  const double optimal = cache.u_max(g, dm);
  return optimal > 0.0 ? achieved / optimal : 1.0;
}

std::vector<std::unique_ptr<RoutingEnv>> make_vec_envs(
    const std::vector<Scenario>& scenarios, const EnvConfig& config,
    std::uint64_t seed, int n) {
  if (n <= 0) throw std::invalid_argument("make_vec_envs: n <= 0");
  std::vector<std::unique_ptr<RoutingEnv>> envs;
  envs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    envs.push_back(std::make_unique<RoutingEnv>(
        scenarios, config, seed + static_cast<std::uint64_t>(i)));
    if (i > 0) envs.back()->set_shared_cache(envs.front()->shared_cache());
  }
  return envs;
}

}  // namespace gddr::core
