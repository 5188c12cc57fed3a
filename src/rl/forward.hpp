// One-off (no-gradient) policy forward passes, shared by the PPO trainer,
// the vectorised collector, evaluation and serving.  A forward runs on a
// thread-local Tape and only reads policy parameters, so concurrent calls
// on the same policy from different threads are safe.
#pragma once

#include <vector>

#include "rl/policy.hpp"

namespace gddr::rl {

struct PolicyForward {
  std::vector<double> mean;
  std::vector<double> log_std;
  double value = 0.0;
};

// Evaluates action mean, log-std row and state value for one observation
// (what a rollout step needs).
PolicyForward forward_policy(Policy& policy, const Observation& obs);

// Action mean alone for one observation: the value network never runs.
std::vector<double> forward_action_mean(Policy& policy,
                                        const Observation& obs);

// No-gradient action means, one row per observation: the one inference
// forward serving uses, where a lone request is a batch of one.
// Observations sharing one topology go through the policy's stacked
// path (one GNN forward instead of |obs|); policies without one, or
// observations of mixed connectivity, fall back to one action_mean per
// observation.  Row i is bit-identical to
// forward_action_mean(policy, *obs[i]) either way.
std::vector<std::vector<double>> forward_action_means(
    Policy& policy, const std::vector<const Observation*>& obs);

// Log-density of `action` under the diagonal Gaussian (mean, exp(log_std)).
double action_log_prob(const std::vector<double>& action,
                       const std::vector<double>& mean,
                       const std::vector<double>& log_std);

}  // namespace gddr::rl
