#include "gnn/graph_net.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace gddr::gnn {

using nn::Mlp;
using nn::MlpConfig;
using nn::Tape;

GraphSpec GraphSpec::from_edges(int num_nodes, std::span<const int> senders,
                                std::span<const int> receivers, int batch) {
  if (batch < 1) throw std::invalid_argument("GraphSpec: batch < 1");
  if (num_nodes < 0 || senders.size() != receivers.size()) {
    throw std::invalid_argument("GraphSpec: malformed edge lists");
  }
  for (std::size_t e = 0; e < senders.size(); ++e) {
    if (senders[e] < 0 || senders[e] >= num_nodes || receivers[e] < 0 ||
        receivers[e] >= num_nodes) {
      throw std::invalid_argument("GraphSpec: vertex id out of range");
    }
  }
  GraphSpec spec;
  spec.batch = batch;
  spec.base_nodes = num_nodes;
  spec.base_edges = static_cast<int>(senders.size());
  const auto stacked_edges = static_cast<std::size_t>(spec.num_edges());
  std::vector<int> stacked_senders;
  std::vector<int> stacked_receivers;
  std::vector<int> node_ids;
  std::vector<int> edge_ids;
  stacked_senders.reserve(stacked_edges);
  stacked_receivers.reserve(stacked_edges);
  node_ids.reserve(static_cast<std::size_t>(spec.num_nodes()));
  edge_ids.reserve(stacked_edges);
  for (int copy = 0; copy < batch; ++copy) {
    const int offset = copy * num_nodes;
    for (std::size_t e = 0; e < senders.size(); ++e) {
      stacked_senders.push_back(senders[e] + offset);
      stacked_receivers.push_back(receivers[e] + offset);
      edge_ids.push_back(copy);
    }
    node_ids.insert(node_ids.end(), static_cast<std::size_t>(num_nodes), copy);
  }
  auto plan = [](std::vector<int> ids, int segments) {
    return std::make_shared<const nn::kernels::SegmentPlan>(
        nn::kernels::build_segment_plan(std::move(ids), segments));
  };
  spec.senders =
      std::make_shared<const std::vector<int>>(std::move(stacked_senders));
  spec.receiver_plan = plan(std::move(stacked_receivers), spec.num_nodes());
  spec.node_pool_plan = plan(std::move(node_ids), batch);
  spec.edge_pool_plan = plan(std::move(edge_ids), batch);
  return spec;
}

GraphSpec GraphSpec::from(const graph::DiGraph& g, int batch) {
  std::vector<int> senders;
  std::vector<int> receivers;
  senders.reserve(static_cast<std::size_t>(g.num_edges()));
  receivers.reserve(static_cast<std::size_t>(g.num_edges()));
  for (const auto& e : g.edges()) {
    senders.push_back(e.src);
    receivers.push_back(e.dst);
  }
  return from_edges(g.num_nodes(), senders, receivers, batch);
}

namespace {

MlpConfig make_mlp_config(const std::vector<int>& hidden, nn::Activation act,
                          double output_scale = 1.0) {
  MlpConfig cfg;
  cfg.hidden = hidden;
  cfg.hidden_activation = act;
  cfg.output_activation = nn::Activation::kIdentity;
  cfg.output_scale = output_scale;
  return cfg;
}

}  // namespace

GnBlock::GnBlock(const GnBlockConfig& config, util::Rng& rng)
    : config_(config),
      edge_mlp_(config.edge_in + 2 * config.node_in + config.global_in,
                config.edge_out, make_mlp_config(config.mlp_hidden,
                                                 config.activation),
                rng),
      node_mlp_(config.edge_out + config.node_in + config.global_in,
                config.node_out, make_mlp_config(config.mlp_hidden,
                                                 config.activation),
                rng),
      global_mlp_(config.edge_out + config.node_out + config.global_in,
                  config.global_out, make_mlp_config(config.mlp_hidden,
                                                     config.activation),
                  rng) {}

GraphVars GnBlock::forward(Tape& tape, const GraphSpec& spec,
                           const GraphVars& in) {
  const auto& nv = tape.value(in.nodes);
  const auto& ev = tape.value(in.edges);
  const auto& gv = tape.value(in.globals);
  if (nv.rows() != spec.num_nodes() || nv.cols() != config_.node_in ||
      ev.rows() != spec.num_edges() || ev.cols() != config_.edge_in ||
      gv.rows() != spec.batch || gv.cols() != config_.global_in) {
    throw std::invalid_argument(
        std::string("GnBlock: graph attribute shapes ") + nv.shape_str() +
        "/" + ev.shape_str() + "/" + gv.shape_str() +
        " do not match the configured sizes");
  }

  // --- phi_e: update every edge from [e_k, v_sender, v_receiver, u] ---
  // Each copy's global row reaches its edges and nodes by a gather on the
  // copy id, and the global pooling is a per-copy segment sum.  Each
  // copy's rows are contiguous and ascending, so every bucket accumulates
  // in plain row order — the kernel contract that makes a copy's output
  // independent of the batch it rides in.
  obs::ScopedTimer edge_timer("gnn/block/edge");
  const Tape::Var sender_feats = tape.gather_rows(in.nodes, spec.senders);
  const Tape::Var receiver_feats = tape.gather_rows(in.nodes, spec.receivers());
  const Tape::Var u_per_edge =
      tape.gather_rows(in.globals, spec.edge_graph_ids());
  Tape::Var edge_input = tape.concat_cols(in.edges, sender_feats);
  edge_input = tape.concat_cols(edge_input, receiver_feats);
  edge_input = tape.concat_cols(edge_input, u_per_edge);
  const Tape::Var edges_out = edge_mlp_.forward(tape, edge_input);
  edge_timer.stop();

  // --- rho_{e->v}, then phi_v: update every node from [agg_edges, v_i, u] ---
  obs::ScopedTimer node_timer("gnn/block/node");
  const Tape::Var agg_edges = tape.segment_sum(edges_out, spec.receiver_plan);
  const Tape::Var u_per_node =
      tape.gather_rows(in.globals, spec.node_graph_ids());
  Tape::Var node_input = tape.concat_cols(agg_edges, in.nodes);
  node_input = tape.concat_cols(node_input, u_per_node);
  const Tape::Var nodes_out = node_mlp_.forward(tape, node_input);
  node_timer.stop();

  // --- rho_{e->u}, rho_{v->u}, then phi_u ---
  obs::ScopedTimer global_timer("gnn/block/global");
  const Tape::Var all_edges = tape.segment_sum(edges_out, spec.edge_pool_plan);
  const Tape::Var all_nodes = tape.segment_sum(nodes_out, spec.node_pool_plan);
  Tape::Var global_input = tape.concat_cols(all_edges, all_nodes);
  global_input = tape.concat_cols(global_input, in.globals);
  const Tape::Var globals_out = global_mlp_.forward(tape, global_input);
  global_timer.stop();

  return GraphVars{nodes_out, edges_out, globals_out};
}

std::vector<nn::Parameter*> GnBlock::parameters() {
  std::vector<nn::Parameter*> params = edge_mlp_.parameters();
  for (auto* p : node_mlp_.parameters()) params.push_back(p);
  for (auto* p : global_mlp_.parameters()) params.push_back(p);
  return params;
}

std::size_t GnBlock::num_parameters() const {
  return edge_mlp_.num_parameters() + node_mlp_.num_parameters() +
         global_mlp_.num_parameters();
}

IndependentBlock::IndependentBlock(const IndependentConfig& config,
                                   util::Rng& rng)
    : config_(config),
      node_mlp_(config.node_in, config.node_out,
                make_mlp_config(config.mlp_hidden, config.activation,
                                config.output_scale),
                rng),
      edge_mlp_(config.edge_in, config.edge_out,
                make_mlp_config(config.mlp_hidden, config.activation,
                                config.output_scale),
                rng),
      global_mlp_(config.global_in, config.global_out,
                  make_mlp_config(config.mlp_hidden, config.activation,
                                  config.output_scale),
                  rng) {}

GraphVars IndependentBlock::forward(Tape& tape, const GraphVars& in) {
  return GraphVars{node_mlp_.forward(tape, in.nodes),
                   edge_mlp_.forward(tape, in.edges),
                   global_mlp_.forward(tape, in.globals)};
}

std::vector<nn::Parameter*> IndependentBlock::parameters() {
  std::vector<nn::Parameter*> params = node_mlp_.parameters();
  for (auto* p : edge_mlp_.parameters()) params.push_back(p);
  for (auto* p : global_mlp_.parameters()) params.push_back(p);
  return params;
}

std::size_t IndependentBlock::num_parameters() const {
  return node_mlp_.num_parameters() + edge_mlp_.num_parameters() +
         global_mlp_.num_parameters();
}

namespace {

IndependentConfig encoder_config(const EncodeProcessDecodeConfig& c) {
  IndependentConfig cfg;
  cfg.node_in = c.node_in;
  cfg.edge_in = c.edge_in;
  cfg.global_in = c.global_in;
  cfg.node_out = cfg.edge_out = cfg.global_out = c.latent;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.activation = c.activation;
  return cfg;
}

GnBlockConfig core_config(const EncodeProcessDecodeConfig& c) {
  GnBlockConfig cfg;
  // The core consumes [encoded || previous latent] (the recurrent loop of
  // Figure 5), hence doubled input widths.
  cfg.node_in = cfg.edge_in = cfg.global_in = 2 * c.latent;
  cfg.node_out = cfg.edge_out = cfg.global_out = c.latent;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.activation = c.activation;
  return cfg;
}

IndependentConfig decoder_config(const EncodeProcessDecodeConfig& c) {
  IndependentConfig cfg;
  cfg.node_in = cfg.edge_in = cfg.global_in = c.latent;
  cfg.node_out = c.node_out;
  cfg.edge_out = c.edge_out;
  cfg.global_out = c.global_out;
  cfg.mlp_hidden = c.mlp_hidden;
  cfg.activation = c.activation;
  cfg.output_scale = c.decoder_output_scale;
  return cfg;
}

}  // namespace

EncodeProcessDecode::EncodeProcessDecode(
    const EncodeProcessDecodeConfig& config, util::Rng& rng)
    : config_(config),
      encoder_(encoder_config(config), rng),
      core_(core_config(config), rng),
      decoder_(decoder_config(config), rng) {
  if (config.steps < 1) {
    throw std::invalid_argument("EncodeProcessDecode: steps < 1");
  }
}

GraphVars EncodeProcessDecode::forward(Tape& tape, const GraphSpec& spec,
                                       const GraphVars& in) {
  obs::ScopedTimer forward_timer("gnn/forward");
  const GraphVars encoded = encoder_.forward(tape, in);
  GraphVars latent = encoded;
  for (int step = 0; step < config_.steps; ++step) {
    const GraphVars core_in{
        tape.concat_cols(encoded.nodes, latent.nodes),
        tape.concat_cols(encoded.edges, latent.edges),
        tape.concat_cols(encoded.globals, latent.globals)};
    latent = core_.forward(tape, spec, core_in);
  }
  return decoder_.forward(tape, latent);
}

std::vector<nn::Parameter*> EncodeProcessDecode::parameters() {
  std::vector<nn::Parameter*> params = encoder_.parameters();
  for (auto* p : core_.parameters()) params.push_back(p);
  for (auto* p : decoder_.parameters()) params.push_back(p);
  return params;
}

std::size_t EncodeProcessDecode::num_parameters() const {
  return encoder_.num_parameters() + core_.num_parameters() +
         decoder_.num_parameters();
}

}  // namespace gddr::gnn
