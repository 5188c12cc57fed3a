#include "core/policies.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
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
// thousands of times at batch 1 plus a few serving batch sizes; beyond
// this the cache resets rather than growing unboundedly.
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

// One encode-process-decode forward of `net` over the observations stacked
// as disjoint copies of their shared graph (the caller guarantees shared
// connectivity and attribute shapes).  Copy b's attribute rows sit at
// offset b * rows in the stacked tensors; a single observation is a batch
// of one, whose inputs are plain arena copies of its tensors.
GraphVars forward_stacked(gnn::EncodeProcessDecode& net, Tape& tape,
                          std::span<const rl::Observation* const> obs) {
  const int batch = static_cast<int>(obs.size());
  const GraphSpec& spec = cached_spec(*obs.front(), batch);
  const auto stack = [&](const Tensor rl::Observation::* member) {
    return tape.stack_rows(
        batch, [&](int b) -> const Tensor& {
          return obs[static_cast<std::size_t>(b)]->*member;
        });
  };
  const GraphVars in{stack(&rl::Observation::nodes),
                     stack(&rl::Observation::edges),
                     stack(&rl::Observation::globals)};
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
  if (static_cast<int>(obs.flat.size()) != obs_dim_) {
    throw std::invalid_argument(
        "MlpPolicy: observation size " + std::to_string(obs.flat.size()) +
        " != configured " + std::to_string(obs_dim_) +
        " (MLP policies are fixed to one topology)");
  }
  return action_dim_;
}

Tape::Var MlpPolicy::action_mean(Tape& tape, const rl::Observation& obs) {
  (void)action_dim(obs);  // validates the observation size
  const Tape::Var x = tape.constant(Tensor::row(
      std::span<const double>(obs.flat.data(), obs.flat.size())));
  return pi_.forward(tape, x);
}

Tape::Var MlpPolicy::value(Tape& tape, const rl::Observation& obs) {
  const Tape::Var x = tape.constant(Tensor::row(
      std::span<const double>(obs.flat.data(), obs.flat.size())));
  return vf_.forward(tape, x);
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
  const rl::Observation* one[] = {&obs};
  const GraphVars out = forward_stacked(pi_, tape, one);
  // Decoded edge attributes (E x 1) -> action row (1 x E).
  return tape.reshape(out.edges, 1, action_dim(obs));
}

bool GnnPolicy::action_means(Tape& tape,
                             const std::vector<const rl::Observation*>& obs,
                             Tape::Var& out) {
  if (obs.empty()) return false;
  const rl::Observation& first = *obs.front();
  for (const rl::Observation* o : obs) {
    if (o->num_nodes != first.num_nodes || o->senders != first.senders ||
        o->receivers != first.receivers ||
        !o->nodes.same_shape(first.nodes) ||
        !o->edges.same_shape(first.edges) ||
        !o->globals.same_shape(first.globals)) {
      return false;
    }
  }
  const GraphVars decoded = forward_stacked(pi_, tape, obs);
  // Decoded stacked edge attributes (batch*E x 1) -> one action row per
  // copy (batch x E): row-major reshape keeps copy b's E edges on row b.
  out = tape.reshape(decoded.edges, static_cast<int>(obs.size()),
                     action_dim(first));
  return true;
}

Tape::Var GnnPolicy::value(Tape& tape, const rl::Observation& obs) {
  const rl::Observation* one[] = {&obs};
  return forward_stacked(vf_, tape, one).globals;  // 1 x 1
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
  const rl::Observation* one[] = {&obs};
  return forward_stacked(pi_, tape, one).globals;  // 1 x 2
}

Tape::Var IterativeGnnPolicy::value(Tape& tape, const rl::Observation& obs) {
  const rl::Observation* one[] = {&obs};
  return forward_stacked(vf_, tape, one).globals;  // 1 x 1
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
