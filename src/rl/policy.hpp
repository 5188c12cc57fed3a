// Stochastic policy interface for PPO.
//
// A policy supplies, for an observation, the on-tape action mean, the
// on-tape state-value estimate, and a log-standard-deviation row for
// exploration.  PPO treats the policy as a black box, which is what lets
// the MLP baseline, the GNN policy and the iterative GNN policy train
// under the identical algorithm (paper §VIII-C trains all of them with the
// same PPO2).
//
// Batch contract: an observation of batch B (see rl::Observation) gets B
// rows — action_mean is B x action_dim and value is B x 1 — and row b is
// bit-identical to the same call on copy b alone.  That is what lets the
// PPO update run one stacked forward per minibatch shard and serving one
// per micro-batch, while a single observation stays a batch of one.
#pragma once

#include <vector>

#include "nn/tape.hpp"
#include "rl/env.hpp"

namespace gddr::rl {

class Policy {
 public:
  virtual ~Policy() = default;

  // Action dimensionality of one copy of this observation.
  virtual int action_dim(const Observation& obs) const = 0;

  // Mean of the Gaussian action distribution, a batch x action_dim Var.
  virtual nn::Tape::Var action_mean(nn::Tape& tape,
                                    const Observation& obs) = 0;

  // State-value estimate, a batch x 1 Var.
  virtual nn::Tape::Var value(nn::Tape& tape, const Observation& obs) = 0;

  // Log-std row (1 x action_dim) for the exploration Gaussian.  Policies
  // with a variable action dimension share a single scalar log-std across
  // dimensions so the parameter count stays topology-independent.
  virtual nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) = 0;

  // Every learnable parameter (policy + value networks + log-std).
  virtual std::vector<nn::Parameter*> parameters() = 0;

  // Human-readable identifier used in bench output.
  virtual std::string name() const = 0;

  // Action means for observations sharing one topology (the serving
  // engine's micro-batches): fills `out` with a B x action_dim Var whose
  // row b is bit-identical to action_mean(tape, *obs[b]).  The default
  // stacks the observations (stack_observations) and makes one
  // action_mean call; it returns false, leaving `out` untouched, when they
  // cannot be stacked.  Defined in rl/forward.cpp.
  virtual bool action_means(nn::Tape& tape,
                            const std::vector<const Observation*>& obs,
                            nn::Tape::Var& out);
};

}  // namespace gddr::rl
