#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <vector>

#include "gnn/graph_net.hpp"
#include "nn/optimizer.hpp"
#include "topo/zoo.hpp"
#include "util/rng.hpp"

namespace gddr::gnn {
namespace {

using nn::Tape;
using nn::Tensor;
using Var = Tape::Var;

GraphSpec line_graph() {
  // 0 -> 1 -> 2
  const std::vector<int> senders{0, 1};
  const std::vector<int> receivers{1, 2};
  return GraphSpec::from_edges(3, senders, receivers);
}

GraphVars make_vars(Tape& tape, const GraphSpec& spec, int node_dim,
                    int edge_dim, int global_dim, util::Rng& rng) {
  Tensor nodes(spec.num_nodes(), node_dim);
  Tensor edges(spec.num_edges(), edge_dim);
  Tensor globals(spec.batch, global_dim);
  for (float& v : nodes.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : edges.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : globals.data()) v = static_cast<float>(rng.uniform(-1, 1));
  return GraphVars{tape.constant(nodes), tape.constant(edges),
                   tape.constant(globals)};
}

TEST(GraphSpec, FromDiGraphIsABatchOfOne) {
  const auto g = topo::abilene();
  const GraphSpec spec = GraphSpec::from(g);
  EXPECT_EQ(spec.batch, 1);
  EXPECT_EQ(spec.num_nodes(), 11);
  EXPECT_EQ(spec.num_edges(), 28);
  for (int e = 0; e < spec.num_edges(); ++e) {
    EXPECT_EQ((*spec.senders)[static_cast<size_t>(e)], g.edge(e).src);
    EXPECT_EQ((*spec.receivers())[static_cast<size_t>(e)], g.edge(e).dst);
    EXPECT_EQ((*spec.edge_graph_ids())[static_cast<size_t>(e)], 0);
  }
  for (int v : *spec.node_graph_ids()) EXPECT_EQ(v, 0);
}

TEST(GraphSpec, FromEdgesRejectsMalformedInput) {
  const std::vector<int> two{0, 1};
  const std::vector<int> one{1};
  const std::vector<int> out_of_range{1, 3};
  EXPECT_THROW(GraphSpec::from_edges(3, two, one), std::invalid_argument);
  EXPECT_THROW(GraphSpec::from_edges(3, two, out_of_range),
               std::invalid_argument);
  EXPECT_THROW(GraphSpec::from_edges(3, two, two, 0), std::invalid_argument);
}

TEST(GnBlock, OutputShapes) {
  util::Rng rng(1);
  GnBlockConfig cfg;
  cfg.node_in = 2;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 5;
  cfg.edge_out = 4;
  cfg.global_out = 3;
  GnBlock block(cfg, rng);
  Tape tape;
  const GraphSpec spec = line_graph();
  const GraphVars in = make_vars(tape, spec, 2, 1, 1, rng);
  const GraphVars out = block.forward(tape, spec, in);
  EXPECT_EQ(tape.value(out.nodes).rows(), 3);
  EXPECT_EQ(tape.value(out.nodes).cols(), 5);
  EXPECT_EQ(tape.value(out.edges).rows(), 2);
  EXPECT_EQ(tape.value(out.edges).cols(), 4);
  EXPECT_EQ(tape.value(out.globals).rows(), 1);
  EXPECT_EQ(tape.value(out.globals).cols(), 3);
}

TEST(GnBlock, ShapeMismatchThrows) {
  util::Rng rng(2);
  GnBlockConfig cfg;
  cfg.node_in = 2;
  GnBlock block(cfg, rng);
  Tape tape;
  const GraphSpec spec = line_graph();
  const GraphVars bad = make_vars(tape, spec, 3, 1, 1, rng);  // node_dim 3
  EXPECT_THROW(block.forward(tape, spec, bad), std::invalid_argument);
}

TEST(GnBlock, ParameterCountIndependentOfGraphSize) {
  util::Rng rng(3);
  GnBlockConfig cfg;
  GnBlock block(cfg, rng);
  const std::size_t count = block.num_parameters();
  // Forward on two very different graphs uses the same parameters — the
  // central generalisation claim of the paper (§IX).
  for (const auto& name : {"SmallRing", "GeantLike"}) {
    Tape tape;
    const GraphSpec spec = GraphSpec::from(topo::by_name(name));
    const GraphVars in = make_vars(tape, spec, cfg.node_in, cfg.edge_in,
                                   cfg.global_in, rng);
    const GraphVars out = block.forward(tape, spec, in);
    EXPECT_EQ(tape.value(out.nodes).rows(), spec.num_nodes());
  }
  EXPECT_EQ(block.num_parameters(), count);
}

TEST(GnBlock, MessagePassingPropagatesInformation) {
  // Changing node 0's input must change node 1's output (0 -> 1 edge) in a
  // single block, and node 2's only after two applications.
  util::Rng rng(4);
  GnBlockConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 1;
  cfg.edge_out = 1;
  cfg.global_out = 1;
  GnBlock block(cfg, rng);
  const GraphSpec spec = line_graph();

  auto run = [&](float node0_feat) {
    Tape tape;
    Tensor nodes(3, 1);
    nodes.at(0, 0) = node0_feat;
    nodes.at(1, 0) = 0.3F;
    nodes.at(2, 0) = -0.2F;
    const GraphVars in{tape.constant(nodes), tape.constant(Tensor(2, 1)),
                       tape.constant(Tensor(1, 1))};
    const GraphVars out = block.forward(tape, spec, in);
    return std::pair<float, float>{tape.value(out.nodes).at(1, 0),
                                   tape.value(out.nodes).at(2, 0)};
  };
  const auto [n1_a, n2_a] = run(0.9F);
  const auto [n1_b, n2_b] = run(-0.9F);
  EXPECT_NE(n1_a, n1_b) << "neighbour must see the change";
  // Node 2 sees node 0 only through the global attribute path in one step;
  // with the global update included the value may change, so we don't
  // assert equality here — only that the direct neighbour changed.
}

TEST(GnBlock, PermutationEquivariance) {
  // Relabelling the nodes (and renumbering senders/receivers accordingly)
  // must permute node outputs and leave edge outputs unchanged.
  util::Rng rng(5);
  GnBlockConfig cfg;
  cfg.node_in = 2;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 3;
  cfg.edge_out = 3;
  cfg.global_out = 3;
  GnBlock block(cfg, rng);

  const std::vector<int> senders{0, 1, 2, 3};
  const std::vector<int> receivers{1, 2, 3, 0};
  const GraphSpec spec = GraphSpec::from_edges(4, senders, receivers);

  util::Rng frng(6);
  Tensor nodes(4, 2);
  for (float& v : nodes.data()) v = static_cast<float>(frng.uniform(-1, 1));
  Tensor edges(4, 1);
  for (float& v : edges.data()) v = static_cast<float>(frng.uniform(-1, 1));
  Tensor globals(1, 1, 0.5F);

  // Permutation pi: old -> new.
  const std::vector<int> pi{2, 0, 3, 1};
  std::vector<int> psenders;
  std::vector<int> preceivers;
  for (int e = 0; e < 4; ++e) {
    psenders.push_back(
        pi[static_cast<size_t>(senders[static_cast<size_t>(e)])]);
    preceivers.push_back(
        pi[static_cast<size_t>(receivers[static_cast<size_t>(e)])]);
  }
  const GraphSpec pspec = GraphSpec::from_edges(4, psenders, preceivers);
  Tensor pnodes(4, 2);
  for (int v = 0; v < 4; ++v) {
    for (int c = 0; c < 2; ++c) {
      pnodes.at(pi[static_cast<size_t>(v)], c) = nodes.at(v, c);
    }
  }

  Tape t1;
  const GraphVars out1 = block.forward(
      t1, spec,
      GraphVars{t1.constant(nodes), t1.constant(edges),
                t1.constant(globals)});
  Tape t2;
  const GraphVars out2 = block.forward(
      t2, pspec,
      GraphVars{t2.constant(pnodes), t2.constant(edges),
                t2.constant(globals)});

  for (int e = 0; e < 4; ++e) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(t1.value(out1.edges).at(e, c),
                  t2.value(out2.edges).at(e, c), 1e-5);
    }
  }
  for (int v = 0; v < 4; ++v) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_NEAR(t1.value(out1.nodes).at(v, c),
                  t2.value(out2.nodes).at(pi[static_cast<size_t>(v)], c),
                  1e-5);
    }
  }
  for (int c = 0; c < 3; ++c) {
    EXPECT_NEAR(t1.value(out1.globals).at(0, c),
                t2.value(out2.globals).at(0, c), 1e-5);
  }
}

TEST(IndependentBlock, NoCrossNodeMixing) {
  util::Rng rng(7);
  IndependentConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 2;
  cfg.edge_out = 2;
  cfg.global_out = 2;
  IndependentBlock block(cfg, rng);
  auto run = [&](float node0) {
    Tape tape;
    Tensor nodes(2, 1);
    nodes.at(0, 0) = node0;
    nodes.at(1, 0) = 0.4F;
    const GraphVars out = block.forward(
        tape, GraphVars{tape.constant(nodes), tape.constant(Tensor(1, 1)),
                        tape.constant(Tensor(1, 1))});
    return tape.value(out.nodes).at(1, 0);
  };
  EXPECT_FLOAT_EQ(run(1.0F), run(-1.0F));
}

TEST(EncodeProcessDecode, OutputShapesMatchConfig) {
  util::Rng rng(8);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 10;
  cfg.edge_in = 3;
  cfg.global_in = 1;
  cfg.node_out = 1;
  cfg.edge_out = 1;
  cfg.global_out = 2;
  EncodeProcessDecode net(cfg, rng);
  Tape tape;
  const GraphSpec spec = GraphSpec::from(topo::abilene());
  const GraphVars in = make_vars(tape, spec, 10, 3, 1, rng);
  const GraphVars out = net.forward(tape, spec, in);
  EXPECT_EQ(tape.value(out.edges).rows(), 28);
  EXPECT_EQ(tape.value(out.edges).cols(), 1);
  EXPECT_EQ(tape.value(out.globals).cols(), 2);
}

TEST(EncodeProcessDecode, MoreStepsReachFurther) {
  // On a 5-node path graph, information from node 0 reaches node 4 only
  // with enough message-passing steps.
  util::Rng rng(9);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.node_out = 1;
  cfg.steps = 1;
  // Use a graph with NO global shortcut: impossible — the GN global
  // aggregates everything in one step.  Instead verify steps change the
  // function: different step counts give different outputs.
  EncodeProcessDecode one(cfg, rng);
  util::Rng rng2(9);
  cfg.steps = 4;
  EncodeProcessDecode four(cfg, rng2);  // same init sequence
  const GraphSpec spec = line_graph();
  util::Rng frng(10);
  Tape t1;
  const GraphVars in1 = make_vars(t1, spec, 1, 1, 1, frng);
  const GraphVars o1 = one.forward(t1, spec, in1);
  util::Rng frng2(10);
  Tape t2;
  const GraphVars in2 = make_vars(t2, spec, 1, 1, 1, frng2);
  const GraphVars o2 = four.forward(t2, spec, in2);
  EXPECT_NE(t1.value(o1.nodes).at(2, 0), t2.value(o2.nodes).at(2, 0));
}

TEST(EncodeProcessDecode, BadStepsThrows) {
  util::Rng rng(11);
  EncodeProcessDecodeConfig cfg;
  cfg.steps = 0;
  EXPECT_THROW(EncodeProcessDecode(cfg, rng), std::invalid_argument);
}

TEST(EncodeProcessDecode, GradientsReachAllParameters) {
  util::Rng rng(12);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.latent = 8;
  cfg.steps = 2;
  EncodeProcessDecode net(cfg, rng);
  const auto params = net.parameters();
  Tape tape;
  const GraphSpec spec = GraphSpec::from(topo::abilene());
  const GraphVars in = make_vars(tape, spec, 2, 1, 1, rng);
  const GraphVars out = net.forward(tape, spec, in);
  const Var loss = tape.add(
      tape.sum_all(tape.square(out.edges)),
      tape.add(tape.sum_all(tape.square(out.nodes)),
               tape.sum_all(tape.square(out.globals))));
  nn::zero_grads(params);
  tape.backward(loss);
  int zero_grad_params = 0;
  for (const auto* p : params) {
    if (p->grad.squared_norm() == 0.0) ++zero_grad_params;
  }
  // Every MLP weight matrix should receive gradient (biases of dead relu
  // units can be zero, so allow a small number of zero-grad tensors).
  EXPECT_LE(zero_grad_params, static_cast<int>(params.size()) / 4);
}

TEST(EncodeProcessDecode, LearnsEdgeSumTask) {
  // Supervised toy task: edge target = sum of endpoint node features.
  // The GNN must drive the loss down by an order of magnitude.
  util::Rng rng(13);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 1;
  cfg.edge_in = 1;
  cfg.global_in = 1;
  cfg.latent = 16;
  cfg.steps = 2;
  EncodeProcessDecode net(cfg, rng);
  nn::Adam adam(0.01);
  const auto params = net.parameters();
  const GraphSpec spec = GraphSpec::from(topo::abilene());

  util::Rng data_rng(14);
  double first = 0.0;
  double last = 0.0;
  for (int iter = 0; iter < 300; ++iter) {
    Tensor nodes(spec.num_nodes(), 1);
    for (float& v : nodes.data()) {
      v = static_cast<float>(data_rng.uniform(-1, 1));
    }
    Tensor target(spec.num_edges(), 1);
    for (int e = 0; e < spec.num_edges(); ++e) {
      target.at(e, 0) =
          nodes.at((*spec.senders)[static_cast<size_t>(e)], 0) +
          nodes.at((*spec.receivers())[static_cast<size_t>(e)], 0);
    }
    Tape tape;
    const GraphVars out = net.forward(
        tape, spec,
        GraphVars{tape.constant(nodes),
                  tape.constant(Tensor(spec.num_edges(), 1)),
                  tape.constant(Tensor(1, 1))});
    const Var loss = tape.mean_all(
        tape.square(tape.sub(out.edges, tape.constant(target))));
    nn::zero_grads(params);
    tape.backward(loss);
    adam.step(params);
    const double l = tape.value(loss).at(0, 0);
    if (iter == 0) first = l;
    last = l;
  }
  EXPECT_LT(last, first / 10.0);
}

TEST(EncodeProcessDecode, SameModelRunsOnDifferentTopologies) {
  // The paper's transfer property: one parameter set, many graphs.
  util::Rng rng(15);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2;
  EncodeProcessDecode net(cfg, rng);
  for (const auto& name : topo::catalogue_names()) {
    const GraphSpec spec = GraphSpec::from(topo::by_name(name));
    Tape tape;
    util::Rng frng(16);
    const GraphVars in = make_vars(tape, spec, 2, 1, 1, frng);
    const GraphVars out = net.forward(tape, spec, in);
    EXPECT_EQ(tape.value(out.edges).rows(), spec.num_edges()) << name;
  }
}

// Stacks `batch` copies of per-copy inputs into the row layout a stacked
// GraphSpec expects: copy b's rows at [b*N, (b+1)*N), but with *different*
// values per copy so the test can tell copies apart.
GraphVars make_stacked_vars(Tape& tape, const GraphSpec& base, int batch,
                            int node_dim, int edge_dim, int global_dim,
                            std::vector<GraphVars>& per_copy,
                            std::deque<Tape>& copy_tapes, util::Rng& rng) {
  Tensor nodes(base.num_nodes() * batch, node_dim);
  Tensor edges(base.num_edges() * batch, edge_dim);
  Tensor globals(batch, global_dim);
  for (float& v : nodes.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : edges.data()) v = static_cast<float>(rng.uniform(-1, 1));
  for (float& v : globals.data()) v = static_cast<float>(rng.uniform(-1, 1));

  copy_tapes.resize(static_cast<size_t>(batch));
  per_copy.clear();
  for (int b = 0; b < batch; ++b) {
    Tensor n(base.num_nodes(), node_dim);
    Tensor e(base.num_edges(), edge_dim);
    Tensor g(1, global_dim);
    for (int r = 0; r < base.num_nodes(); ++r) {
      for (int c = 0; c < node_dim; ++c) {
        n.at(r, c) = nodes.at(b * base.num_nodes() + r, c);
      }
    }
    for (int r = 0; r < base.num_edges(); ++r) {
      for (int c = 0; c < edge_dim; ++c) {
        e.at(r, c) = edges.at(b * base.num_edges() + r, c);
      }
    }
    for (int c = 0; c < global_dim; ++c) g.at(0, c) = globals.at(b, c);
    Tape& t = copy_tapes[static_cast<size_t>(b)];
    per_copy.push_back(
        GraphVars{t.constant(n), t.constant(e), t.constant(g)});
  }
  return GraphVars{tape.constant(nodes), tape.constant(edges),
                   tape.constant(globals)};
}

void expect_rows_bit_identical(const Tensor& stacked, const Tensor& solo,
                               int row_offset, const char* what) {
  ASSERT_EQ(stacked.cols(), solo.cols());
  for (int r = 0; r < solo.rows(); ++r) {
    for (int c = 0; c < solo.cols(); ++c) {
      // EXPECT_EQ on float demands exact bit-level agreement (NaN aside);
      // approximate closeness would hide a reordered accumulation.
      EXPECT_EQ(stacked.at(row_offset + r, c), solo.at(r, c))
          << what << " row " << r << " col " << c;
    }
  }
}

TEST(GraphSpec, StacksDisjointCopies) {
  const GraphSpec base = GraphSpec::from(topo::abilene());
  const GraphSpec bspec = GraphSpec::from(topo::abilene(), 3);
  EXPECT_EQ(bspec.batch, 3);
  EXPECT_EQ(bspec.base_nodes, base.num_nodes());
  EXPECT_EQ(bspec.base_edges, base.num_edges());
  EXPECT_EQ(bspec.num_nodes(), base.num_nodes() * 3);
  EXPECT_EQ(bspec.num_edges(), base.num_edges() * 3);
  const auto receivers = bspec.receivers();
  const auto base_receivers = base.receivers();
  for (int b = 0; b < 3; ++b) {
    for (int e = 0; e < base.num_edges(); ++e) {
      const auto idx = static_cast<size_t>(b * base.num_edges() + e);
      EXPECT_EQ((*bspec.senders)[idx],
                (*base.senders)[static_cast<size_t>(e)] + b * base.num_nodes());
      EXPECT_EQ((*receivers)[idx],
                (*base_receivers)[static_cast<size_t>(e)] +
                    b * base.num_nodes());
      EXPECT_EQ((*bspec.edge_graph_ids())[idx], b);
    }
    for (int n = 0; n < base.num_nodes(); ++n) {
      EXPECT_EQ((*bspec.node_graph_ids())[static_cast<size_t>(
                    b * base.num_nodes() + n)],
                b);
    }
  }
  EXPECT_THROW(GraphSpec::from(topo::abilene(), 0), std::invalid_argument);
}

// The serving engine's batched inference is only admissible because a
// stacked forward is *bit-identical* per copy to a batch of one — a
// decision served from a batch must not depend on who it shared the batch
// with.
TEST(GnBlock, BatchedForwardBitIdenticalToPerCopyForwards) {
  util::Rng rng(21);
  GnBlockConfig cfg;
  cfg.node_in = 3;
  cfg.edge_in = 2;
  cfg.global_in = 2;
  cfg.node_out = 7;
  cfg.edge_out = 5;
  cfg.global_out = 4;
  GnBlock block(cfg, rng);

  const GraphSpec base = GraphSpec::from(topo::abilene());
  const int batch = 4;
  const GraphSpec bspec = GraphSpec::from(topo::abilene(), batch);

  Tape stacked_tape;
  std::vector<GraphVars> per_copy;
  std::deque<Tape> copy_tapes;
  util::Rng frng(22);
  const GraphVars in =
      make_stacked_vars(stacked_tape, base, batch, 3, 2, 2, per_copy,
                        copy_tapes, frng);
  const GraphVars out = block.forward(stacked_tape, bspec, in);
  const Tensor& nodes = stacked_tape.value(out.nodes);
  const Tensor& edges = stacked_tape.value(out.edges);
  const Tensor& globals = stacked_tape.value(out.globals);
  ASSERT_EQ(globals.rows(), batch);

  for (int b = 0; b < batch; ++b) {
    Tape& t = copy_tapes[static_cast<size_t>(b)];
    const GraphVars solo =
        block.forward(t, base, per_copy[static_cast<size_t>(b)]);
    expect_rows_bit_identical(nodes, t.value(solo.nodes),
                              b * base.num_nodes(), "nodes");
    expect_rows_bit_identical(edges, t.value(solo.edges),
                              b * base.num_edges(), "edges");
    expect_rows_bit_identical(globals, t.value(solo.globals), b, "globals");
  }
}

TEST(EncodeProcessDecode, BatchedForwardBitIdenticalToPerCopyForwards) {
  util::Rng rng(23);
  EncodeProcessDecodeConfig cfg;
  cfg.node_in = 2;
  cfg.steps = 3;
  EncodeProcessDecode net(cfg, rng);

  const GraphSpec base = GraphSpec::from(topo::nsfnet());
  const int batch = 3;
  const GraphSpec bspec = GraphSpec::from(topo::nsfnet(), batch);

  Tape stacked_tape;
  std::vector<GraphVars> per_copy;
  std::deque<Tape> copy_tapes;
  util::Rng frng(24);
  const GraphVars in = make_stacked_vars(stacked_tape, base, batch, 2, 1, 1,
                                         per_copy, copy_tapes, frng);
  const GraphVars out = net.forward(stacked_tape, bspec, in);
  const Tensor& edges = stacked_tape.value(out.edges);

  for (int b = 0; b < batch; ++b) {
    Tape& t = copy_tapes[static_cast<size_t>(b)];
    const GraphVars solo =
        net.forward(t, base, per_copy[static_cast<size_t>(b)]);
    expect_rows_bit_identical(edges, t.value(solo.edges),
                              b * base.num_edges(), "decoded edges");
  }
}

}  // namespace
}  // namespace gddr::gnn
