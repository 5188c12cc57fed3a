// Reinforcement-learning environment interface (OpenAI-Gym-style, paper
// §V): reset() starts an episode, step() advances one timestep given an
// action and returns the next observation, the reward and a done flag.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "nn/tensor.hpp"

namespace gddr::rl {

// An observation.  Environments fill every representation so that
// different policy families can consume the same stream:
//  * `flat`    — flattened feature vector (MLP policies; paper §V-B);
//  * `nodes` / `edges` / `globals` — graph-structured attributes plus the
//    sender/receiver connectivity (GNN policies, paper Eq. 4/6);
//
// An environment always emits a single observation (batch 1).  A stacked
// observation (batch B, built by stack_observations) holds B copies that
// share one topology: `flat`, `nodes`, `edges` and `globals` hold the B
// copies' rows back to back in copy order (copy b's nodes are rows
// [b * N, (b + 1) * N)), while `senders`, `receivers` and `num_nodes`
// describe one copy.  Policies answer a stacked observation with one row
// per copy (see rl::Policy).
struct Observation {
  std::vector<double> flat;  // B * flat_dim
  nn::Tensor nodes;    // B * N x node_dim
  nn::Tensor edges;    // B * E x edge_dim
  nn::Tensor globals;  // B x global_dim
  std::vector<int> senders;    // per edge of one copy: source node
  std::vector<int> receivers;  // per edge of one copy: destination node
  int num_nodes = 0;           // nodes of one copy
  int batch = 1;
};

// True when `a` and `b` can be stacked: same connectivity and the same
// per-copy attribute shapes.
bool stackable(const Observation& a, const Observation& b);

// Refills `out` with the copies of `parts` stacked in order (out.batch is
// the sum of their batches); `out`'s buffers are reused, so a long-lived
// `out` stops allocating once it has seen the largest stack.  Returns
// false, leaving `out` unspecified, when `parts` is empty or not pairwise
// stackable.
bool stack_observations(std::span<const Observation* const> parts,
                        Observation& out);

class Env {
 public:
  virtual ~Env() = default;

  // Starts a new episode and returns its first observation.
  virtual Observation reset() = 0;

  struct StepResult {
    Observation obs;
    double reward = 0.0;
    bool done = false;
    // True when `done` is due to a time/step limit rather than a real
    // terminal state of the MDP.  A truncating env must fill `obs` with
    // the terminal observation so the collector can bootstrap V(s_T)
    // (GAE must not zero the successor value at a truncation).
    bool truncated = false;
  };

  // Applies `action` (length action_dim()) and advances one timestep.
  virtual StepResult step(std::span<const double> action) = 0;

  // Dimensionality of the action expected by the *next* step() call (may
  // change across episodes when training over multiple topologies).
  virtual int action_dim() const = 0;

  // Checkpoint support.  An env that participates in trainer
  // checkpoint/resume serialises its complete dynamic state (RNG,
  // sequence cursors, in-flight episode position) into an opaque blob;
  // restoring it must make the env bit-identical to the moment of the
  // save.  The defaults mark the env stateless: save returns an empty
  // blob and restore accepts only an empty one, so resuming a trainer
  // over an env that silently dropped state is impossible.
  virtual std::vector<std::uint8_t> save_state() const { return {}; }
  virtual void restore_state(std::span<const std::uint8_t> blob) {
    if (!blob.empty()) {
      throw std::runtime_error(
          "Env::restore_state: this env does not support state restore");
    }
  }
};

}  // namespace gddr::rl
