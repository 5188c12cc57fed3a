// Stochastic policy interface for PPO.
//
// A policy supplies, for one observation, the on-tape action mean
// (1 x action_dim), the on-tape state-value estimate (1 x 1), and a
// log-standard-deviation row for exploration.  PPO treats the policy as a
// black box, which is what lets the MLP baseline, the GNN policy and the
// iterative GNN policy train under the identical algorithm (paper §VIII-C
// trains all of them with the same PPO2).
#pragma once

#include <vector>

#include "nn/tape.hpp"
#include "rl/env.hpp"

namespace gddr::rl {

class Policy {
 public:
  virtual ~Policy() = default;

  // Action dimensionality for this observation.
  virtual int action_dim(const Observation& obs) const = 0;

  // Mean of the Gaussian action distribution, a 1 x action_dim Var.
  virtual nn::Tape::Var action_mean(nn::Tape& tape,
                                    const Observation& obs) = 0;

  // State-value estimate, a 1 x 1 Var.
  virtual nn::Tape::Var value(nn::Tape& tape, const Observation& obs) = 0;

  // Log-std row (1 x action_dim) for the exploration Gaussian.  Policies
  // with a variable action dimension share a single scalar log-std across
  // dimensions so the parameter count stays topology-independent.
  virtual nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) = 0;

  // Every learnable parameter (policy + value networks + log-std).
  virtual std::vector<nn::Parameter*> parameters() = 0;

  // Human-readable identifier used in bench output.
  virtual std::string name() const = 0;

  // Stacked action means for observations sharing one topology (the
  // serving engine's micro-batches): on success fills `out` with a
  // B x action_dim Var whose row b is bit-identical to
  // action_mean(tape, *obs[b]).  The default has no stacked path and
  // returns false; rl::forward_action_means then runs action_mean once
  // per observation.
  virtual bool action_means(nn::Tape& /*tape*/,
                            const std::vector<const Observation*>& /*obs*/,
                            nn::Tape::Var& /*out*/) {
    return false;
  }
};

}  // namespace gddr::rl
