// Graph-network blocks (Battaglia et al. 2018), the GNN substrate of the
// GDDR policies (paper §IV, §VII-A, Figure 5).
//
// A graph here is the 3-tuple (u, V, E): a global attribute row vector, a
// node-attribute matrix (one row per vertex) and an edge-attribute matrix
// (one row per directed edge) plus the fixed sender/receiver connectivity.
//
// The full GN block implements the paper's six functions:
//   phi_e (edge update), phi_v (node update), phi_u (global update) as
//   MLPs, and the three rho pooling functions as unsorted segment sums —
//   exactly TensorFlow's tf.unsorted_segment_sum, as stated in §VII-A.
//
// EncodeProcessDecode composes an independent encoder (per-element MLPs,
// no message passing), a recurrent full GN core applied `steps` times on
// the concatenation of the encoded input and the previous latent (the
// "extra loop" in the paper's Figure 5), and an independent decoder.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "graph/digraph.hpp"
#include "nn/kernels.hpp"
#include "nn/mlp.hpp"
#include "nn/tape.hpp"
#include "util/rng.hpp"

namespace gddr::gnn {

// Connectivity of `batch` disjoint copies of one base graph stacked into a
// single graph: copy b's node i is stacked node b * base_nodes + i and its
// edge e is stacked edge b * base_edges + e.  A single graph is a batch of
// one, so every GN forward runs over this one spec type.
//
// The spec is immutable and always planned: the factories build every
// index vector and bucketed segment-sum plan once, and the tape retains
// them by pointer, so repeated forwards on a cached spec copy no index
// data.  The per-row ids of each plan double as the gather indices
// (receivers(), node_graph_ids(), edge_graph_ids()), so no index vector
// is stored twice.
//
// Every kernel a forward touches (gather, segment sum, row-wise MLPs)
// accumulates each output element over the same values in the same order
// for any batch, so copy b of a stacked forward is bit-identical to a
// batch-of-one forward on that copy alone (asserted in test_gnn) — the
// property that lets serving batch requests and training reuse one path.
struct GraphSpec {
  int batch = 0;
  int base_nodes = 0;
  int base_edges = 0;
  // Stacked sender node per stacked edge (batch * base_edges entries).
  std::shared_ptr<const std::vector<int>> senders;
  // rho_{e->v}: stacked edges pooled at their stacked receiver.
  std::shared_ptr<const nn::kernels::SegmentPlan> receiver_plan;
  // rho_{v->u}, rho_{e->u}: stacked rows pooled per copy.
  std::shared_ptr<const nn::kernels::SegmentPlan> node_pool_plan;
  std::shared_ptr<const nn::kernels::SegmentPlan> edge_pool_plan;

  // `batch` copies of the graph on `num_nodes` vertices whose edge e runs
  // senders[e] -> receivers[e].  Throws std::invalid_argument on batch < 1,
  // mismatched edge lists or an out-of-range vertex id.
  static GraphSpec from_edges(int num_nodes, std::span<const int> senders,
                              std::span<const int> receivers, int batch = 1);
  static GraphSpec from(const graph::DiGraph& g, int batch = 1);

  int num_nodes() const { return batch * base_nodes; }
  int num_edges() const { return batch * base_edges; }
  // Stacked receiver node per stacked edge.
  std::shared_ptr<const std::vector<int>> receivers() const {
    return {receiver_plan, &receiver_plan->segments};
  }
  // Copy id per stacked node / edge row, ascending (0,...,0,1,...,1,...).
  std::shared_ptr<const std::vector<int>> node_graph_ids() const {
    return {node_pool_plan, &node_pool_plan->segments};
  }
  std::shared_ptr<const std::vector<int>> edge_graph_ids() const {
    return {edge_pool_plan, &edge_pool_plan->segments};
  }
};

// On-tape attribute set for a (stacked) graph.
struct GraphVars {
  nn::Tape::Var nodes;    // num_nodes x node_dim
  nn::Tape::Var edges;    // num_edges x edge_dim
  nn::Tape::Var globals;  // batch x global_dim
};

struct GnBlockConfig {
  int node_in = 1;
  int edge_in = 1;
  int global_in = 1;
  int node_out = 16;
  int edge_out = 16;
  int global_out = 16;
  std::vector<int> mlp_hidden{32};
  nn::Activation activation = nn::Activation::kRelu;
};

// Full graph-network block with edge, node and global updates.
class GnBlock {
 public:
  GnBlock(const GnBlockConfig& config, util::Rng& rng);

  // `in` carries spec.batch graph copies (nodes num_nodes x node_in,
  // edges num_edges x edge_in, globals batch x global_in); throws
  // std::invalid_argument on any other shape.
  GraphVars forward(nn::Tape& tape, const GraphSpec& spec,
                    const GraphVars& in);

  std::vector<nn::Parameter*> parameters();
  std::size_t num_parameters() const;
  const GnBlockConfig& config() const { return config_; }

 private:
  GnBlockConfig config_;
  nn::Mlp edge_mlp_;    // phi_e
  nn::Mlp node_mlp_;    // phi_v
  nn::Mlp global_mlp_;  // phi_u
};

// Element-wise block: independent MLPs on nodes, edges and globals with no
// message passing (the encoder / decoder of encode-process-decode).
struct IndependentConfig {
  int node_in = 1, edge_in = 1, global_in = 1;
  int node_out = 16, edge_out = 16, global_out = 16;
  std::vector<int> mlp_hidden{32};
  nn::Activation activation = nn::Activation::kRelu;
  // Initial scale of each MLP's output layer (see
  // EncodeProcessDecodeConfig::decoder_output_scale).
  double output_scale = 1.0;
};

class IndependentBlock {
 public:
  IndependentBlock(const IndependentConfig& config, util::Rng& rng);

  GraphVars forward(nn::Tape& tape, const GraphVars& in);

  std::vector<nn::Parameter*> parameters();
  std::size_t num_parameters() const;

 private:
  IndependentConfig config_;
  nn::Mlp node_mlp_;
  nn::Mlp edge_mlp_;
  nn::Mlp global_mlp_;
};

struct EncodeProcessDecodeConfig {
  int node_in = 2;   // (sum outgoing, sum incoming) demand per vertex
  int edge_in = 1;
  int global_in = 1;
  int latent = 16;
  int steps = 3;  // message-passing iterations of the core
  int node_out = 1;
  int edge_out = 1;   // routing weight per edge (paper Eq. 5)
  int global_out = 1;
  std::vector<int> mlp_hidden{32};
  nn::Activation activation = nn::Activation::kRelu;
  // Initial scale of the decoder MLPs' output layers; policy heads use a
  // small value (e.g. 0.01) so initial actions start near zero.
  double decoder_output_scale = 1.0;
};

class EncodeProcessDecode {
 public:
  EncodeProcessDecode(const EncodeProcessDecodeConfig& config, util::Rng& rng);

  // The encoder and decoder are row-independent MLPs, so only the core
  // sees the spec.
  GraphVars forward(nn::Tape& tape, const GraphSpec& spec,
                    const GraphVars& in);

  std::vector<nn::Parameter*> parameters();
  std::size_t num_parameters() const;
  const EncodeProcessDecodeConfig& config() const { return config_; }

 private:
  EncodeProcessDecodeConfig config_;
  IndependentBlock encoder_;
  GnBlock core_;
  IndependentBlock decoder_;
};

}  // namespace gddr::gnn
