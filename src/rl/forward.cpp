#include "rl/forward.hpp"

#include <algorithm>
#include <cmath>

#include "nn/gaussian.hpp"
#include "nn/tape.hpp"

namespace gddr::rl {

namespace {

// One long-lived tape per thread (rollout collectors, evaluation and
// serving workers call these concurrently): reset() recycles every buffer
// through the tape's arena, so steady-state forwards allocate nothing.
nn::Tape& thread_tape() {
  thread_local nn::Tape tape;
  tape.reset();
  return tape;
}

std::vector<double> row_of(const nn::Tensor& t, int row) {
  std::vector<double> out(static_cast<std::size_t>(t.cols()));
  for (int j = 0; j < t.cols(); ++j) {
    out[static_cast<std::size_t>(j)] = t.at(row, j);
  }
  return out;
}

}  // namespace

PolicyForward forward_policy(Policy& policy, const Observation& obs) {
  nn::Tape& tape = thread_tape();
  const int adim = policy.action_dim(obs);
  const nn::Tape::Var mean = policy.action_mean(tape, obs);
  const nn::Tape::Var value = policy.value(tape, obs);
  const nn::Tape::Var log_std = policy.log_std_row(tape, adim);
  PolicyForward fwd;
  fwd.mean = row_of(tape.value(mean), 0);
  fwd.log_std = row_of(tape.value(log_std), 0);
  fwd.value = tape.value(value).at(0, 0);
  return fwd;
}

std::vector<double> forward_action_mean(Policy& policy,
                                        const Observation& obs) {
  nn::Tape& tape = thread_tape();
  return row_of(tape.value(policy.action_mean(tape, obs)), 0);
}

double forward_value(Policy& policy, const Observation& obs) {
  nn::Tape& tape = thread_tape();
  return tape.value(policy.value(tape, obs)).at(0, 0);
}

bool Policy::action_means(nn::Tape& tape,
                          const std::vector<const Observation*>& obs,
                          nn::Tape::Var& out) {
  if (obs.size() == 1) {
    out = action_mean(tape, *obs.front());  // a batch of one needs no copy
    return true;
  }
  // Reused per thread: the tape copies its inputs, so the stack is free
  // again as soon as action_mean returns.
  thread_local Observation stacked;
  if (!stack_observations(obs, stacked)) return false;
  out = action_mean(tape, stacked);
  return true;
}

std::vector<std::vector<double>> forward_action_means(
    Policy& policy, const std::vector<const Observation*>& obs) {
  std::vector<std::vector<double>> means;
  means.reserve(obs.size());
  nn::Tape& tape = thread_tape();
  nn::Tape::Var stacked;
  if (policy.action_means(tape, obs, stacked)) {
    const nn::Tensor& mv = tape.value(stacked);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      means.push_back(row_of(mv, static_cast<int>(i)));
    }
    return means;
  }
  for (const Observation* o : obs) {
    means.push_back(forward_action_mean(policy, *o));
  }
  return means;
}

double action_log_prob(const std::vector<double>& action,
                       const std::vector<double>& mean,
                       const std::vector<double>& log_std) {
  constexpr double kLogSqrt2Pi = 0.9189385332046727;
  double lp = 0.0;
  for (size_t i = 0; i < action.size(); ++i) {
    // Same clamp as nn::diag_gaussian_log_prob, or the PPO importance
    // ratio exp(logpi - logpi_old) would mix clamped and unclamped
    // densities for the same action.
    const double ls = std::clamp(log_std[i], nn::kLogStdMin, nn::kLogStdMax);
    const double sigma = std::exp(ls);
    const double z = (action[i] - mean[i]) / sigma;
    lp += -0.5 * z * z - ls - kLogSqrt2Pi;
  }
  return lp;
}

}  // namespace gddr::rl
