#include "core/policies.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gddr::core {

using gnn::EncodeProcessDecodeConfig;
using gnn::GraphSpec;
using gnn::GraphVars;
using nn::Tape;
using nn::Tensor;

namespace {

nn::MlpConfig mlp_config(const std::vector<int>& hidden, double output_scale) {
  nn::MlpConfig cfg;
  cfg.hidden = hidden;
  cfg.hidden_activation = nn::Activation::kTanh;
  cfg.output_activation = nn::Activation::kIdentity;
  cfg.output_scale = output_scale;
  return cfg;
}

std::size_t spec_hash(const rl::Observation& obs, int batch) {
  // FNV-1a over the connectivity ints and the batch size; collisions are
  // resolved by the full equality check in cached_spec.
  std::size_t h = 1469598103934665603ULL;
  auto mix = [&h](int v) {
    h ^= static_cast<std::size_t>(static_cast<unsigned>(v));
    h *= 1099511628211ULL;
  };
  mix(batch);
  mix(obs.num_nodes);
  for (int v : obs.senders) mix(v);
  for (int v : obs.receivers) mix(v);
  return h;
}

// True when `spec` stacks `batch` copies of the observation's graph: copy
// 0's stacked ids are the base ids themselves.
bool spec_matches(const GraphSpec& spec, const rl::Observation& obs,
                  int batch) {
  const auto prefix_equals = [](const std::vector<int>& stacked,
                                const std::vector<int>& base) {
    return std::equal(base.begin(), base.end(), stacked.begin());
  };
  return spec.batch == batch && spec.base_nodes == obs.num_nodes &&
         spec.base_edges == static_cast<int>(obs.senders.size()) &&
         obs.receivers.size() == obs.senders.size() &&
         prefix_equals(*spec.senders, obs.senders) &&
         prefix_equals(spec.receiver_plan->segments, obs.receivers);
}

// Most runs train and serve on a handful of topologies, each observed
// thousands of times at batch 1 plus a few update-shard and serving batch
// sizes; beyond this the cache resets rather than growing unboundedly.
constexpr std::size_t kSpecCacheCap = 128;

// Returns the GraphSpec stacking `batch` copies of the observation's
// connectivity, cached per (topology, batch).  Policies run concurrently
// on rollout-collector and serving workers, so the cache is thread-local
// — no locks on the hot path.  The returned reference is valid until this
// thread's next cached_spec call; the kernel plans themselves are
// shared_ptrs retained by the tape, so they outlive any cache eviction.
const GraphSpec& cached_spec(const rl::Observation& obs, int batch) {
  struct Entry {
    std::size_t hash = 0;
    GraphSpec spec;
  };
  thread_local std::vector<std::unique_ptr<Entry>> cache;
  const std::size_t h = spec_hash(obs, batch);
  for (const auto& e : cache) {
    if (e->hash == h && spec_matches(e->spec, obs, batch)) return e->spec;
  }
  if (cache.size() >= kSpecCacheCap) cache.clear();
  auto e = std::make_unique<Entry>();
  e->hash = h;
  e->spec = GraphSpec::from_edges(obs.num_nodes, obs.senders, obs.receivers,
                                  batch);
  cache.push_back(std::move(e));
  return cache.back()->spec;
}

// One encode-process-decode forward of `net` over the observation's
// obs.batch stacked copies; a single observation is a batch of one.
GraphVars forward_graph(gnn::EncodeProcessDecode& net, Tape& tape,
                        const rl::Observation& obs) {
  const GraphSpec& spec = cached_spec(obs, obs.batch);
  const GraphVars in{tape.constant(obs.nodes), tape.constant(obs.edges),
                     tape.constant(obs.globals)};
  return net.forward(tape, spec, in);
}

}  // namespace

// ---------------- MlpPolicy ----------------

MlpPolicy::MlpPolicy(int obs_dim, int action_dim,
                     const MlpPolicyConfig& config, util::Rng& rng)
    : obs_dim_(obs_dim),
      action_dim_(action_dim),
      pi_(obs_dim, action_dim, mlp_config(config.pi_hidden, 0.01), rng),
      vf_(obs_dim, 1, mlp_config(config.vf_hidden, 1.0), rng),
      log_std_(Tensor(1, action_dim,
                      static_cast<float>(config.init_log_std))) {}

int MlpPolicy::action_dim(const rl::Observation& obs) const {
  if (obs.batch < 1 ||
      obs.flat.size() != static_cast<std::size_t>(obs.batch) *
                             static_cast<std::size_t>(obs_dim_)) {
    throw std::invalid_argument(
        "MlpPolicy: observation size " + std::to_string(obs.flat.size()) +
        " != batch " + std::to_string(obs.batch) + " x configured " +
        std::to_string(obs_dim_) +
        " (MLP policies are fixed to one topology)");
  }
  return action_dim_;
}

Tape::Var MlpPolicy::input(Tape& tape, const rl::Observation& obs) const {
  (void)action_dim(obs);  // validates the observation size
  return tape.constant(obs.batch, obs_dim_, obs.flat);  // one row per copy
}

Tape::Var MlpPolicy::action_mean(Tape& tape, const rl::Observation& obs) {
  return pi_.forward(tape, input(tape, obs));
}

Tape::Var MlpPolicy::value(Tape& tape, const rl::Observation& obs) {
  return vf_.forward(tape, input(tape, obs));
}

Tape::Var MlpPolicy::log_std_row(Tape& tape, int adim) {
  if (adim != action_dim_) {
    throw std::invalid_argument("MlpPolicy: action dim mismatch");
  }
  return tape.leaf(log_std_);
}

std::vector<nn::Parameter*> MlpPolicy::parameters() {
  std::vector<nn::Parameter*> params = pi_.parameters();
  for (auto* p : vf_.parameters()) params.push_back(p);
  params.push_back(&log_std_);
  return params;
}

std::size_t MlpPolicy::num_parameters() const {
  return pi_.num_parameters() + vf_.num_parameters() + log_std_.size();
}

// ---------------- GnnPolicy ----------------

namespace {

EncodeProcessDecodeConfig gnn_pi_config(const GnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = c.node_feature_width > 0 ? c.node_feature_width
                                         : 2 * c.memory;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.latent = c.latent;
  cfg.steps = c.steps;
  cfg.node_out = 1;
  cfg.edge_out = 1;  // one routing weight per edge (Eq. 5)
  cfg.global_out = 1;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.decoder_output_scale = c.output_scale;
  return cfg;
}

EncodeProcessDecodeConfig gnn_vf_config(const GnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg = gnn_pi_config(c);
  cfg.global_out = 1;  // value read from the global attribute
  cfg.decoder_output_scale = 1.0;
  return cfg;
}

}  // namespace

GnnPolicy::GnnPolicy(const GnnPolicyConfig& config, util::Rng& rng)
    : config_(config),
      pi_(gnn_pi_config(config), rng),
      vf_(gnn_vf_config(config), rng),
      log_std_scalar_(Tensor(1, 1, static_cast<float>(config.init_log_std))) {}

int GnnPolicy::action_dim(const rl::Observation& obs) const {
  return static_cast<int>(obs.senders.size());
}

Tape::Var GnnPolicy::action_mean(Tape& tape, const rl::Observation& obs) {
  // Decoded stacked edge attributes (batch*E x 1) -> one action row per
  // copy (batch x E): row-major reshape keeps copy b's E edges on row b.
  const GraphVars out = forward_graph(pi_, tape, obs);
  return tape.reshape(out.edges, obs.batch, action_dim(obs));
}

Tape::Var GnnPolicy::value(Tape& tape, const rl::Observation& obs) {
  return forward_graph(vf_, tape, obs).globals;  // batch x 1
}

Tape::Var GnnPolicy::log_std_row(Tape& tape, int adim) {
  return tape.broadcast_cols(tape.leaf(log_std_scalar_), adim);
}

std::vector<nn::Parameter*> GnnPolicy::parameters() {
  std::vector<nn::Parameter*> params = pi_.parameters();
  for (auto* p : vf_.parameters()) params.push_back(p);
  params.push_back(&log_std_scalar_);
  return params;
}

std::size_t GnnPolicy::num_parameters() const {
  return pi_.num_parameters() + vf_.num_parameters() + log_std_scalar_.size();
}

// ---------------- IterativeGnnPolicy ----------------

namespace {

EncodeProcessDecodeConfig iter_pi_config(const IterativeGnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2 * c.memory;
  cfg.edge_in = 4;  // Eq. 6's (weight, set, target) + normalised capacity
  cfg.global_in = 1;
  cfg.latent = c.latent;
  cfg.steps = c.steps;
  cfg.node_out = 1;
  cfg.edge_out = 1;
  cfg.global_out = 2;  // (weight, gamma) per Eq. 7
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.decoder_output_scale = c.output_scale;
  return cfg;
}

EncodeProcessDecodeConfig iter_vf_config(const IterativeGnnPolicyConfig& c) {
  EncodeProcessDecodeConfig cfg = iter_pi_config(c);
  cfg.global_out = 1;
  cfg.decoder_output_scale = 1.0;
  return cfg;
}

}  // namespace

IterativeGnnPolicy::IterativeGnnPolicy(const IterativeGnnPolicyConfig& config,
                                       util::Rng& rng)
    : config_(config),
      pi_(iter_pi_config(config), rng),
      vf_(iter_vf_config(config), rng),
      log_std_(Tensor(1, 2, static_cast<float>(config.init_log_std))) {}

Tape::Var IterativeGnnPolicy::action_mean(Tape& tape,
                                          const rl::Observation& obs) {
  return forward_graph(pi_, tape, obs).globals;  // batch x 2
}

Tape::Var IterativeGnnPolicy::value(Tape& tape, const rl::Observation& obs) {
  return forward_graph(vf_, tape, obs).globals;  // batch x 1
}

Tape::Var IterativeGnnPolicy::log_std_row(Tape& tape, int adim) {
  if (adim != 2) {
    throw std::invalid_argument("IterativeGnnPolicy: action dim must be 2");
  }
  return tape.leaf(log_std_);
}

std::vector<nn::Parameter*> IterativeGnnPolicy::parameters() {
  std::vector<nn::Parameter*> params = pi_.parameters();
  for (auto* p : vf_.parameters()) params.push_back(p);
  params.push_back(&log_std_);
  return params;
}

std::size_t IterativeGnnPolicy::num_parameters() const {
  return pi_.num_parameters() + vf_.num_parameters() + log_std_.size();
}

}  // namespace gddr::core
