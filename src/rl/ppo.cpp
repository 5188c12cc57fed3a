#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "nn/gaussian.hpp"
#include "obs/metrics.hpp"
#include "rl/forward.hpp"
#include "rl/rl_invariants.hpp"
#include "util/contract.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

namespace gddr::rl {

using nn::Tape;
using nn::Tensor;

struct MinibatchGradient::Shard {
  nn::Tape tape;
  std::vector<const StepSample*> samples;
  std::vector<const Observation*> parts;
  Observation obs;  // the samples' observations, stacked
  // Per-sample loss inputs, one row each, refilled per minibatch.
  Tensor actions;
  std::vector<double> old_log_prob, advantage, returns, value_old,
      value_shift;
  // All-zero row indices repeating the 1 x A log-std row once per sample.
  std::shared_ptr<const std::vector<int>> zero_rows;
  // The loss (1 x 1) and its per-row terms, read back after the barrier.
  struct Outputs {
    Tape::Var loss, log_prob, policy_loss, value_loss, entropy;
  } out;
};

MinibatchGradient::MinibatchGradient(Policy& policy, const PpoConfig& config)
    : policy_(policy), config_(config), params_(policy.parameters()) {}

MinibatchGradient::~MinibatchGradient() = default;

MinibatchLoss MinibatchGradient::compute(
    std::span<const StepSample* const> minibatch, util::ThreadPool* pool) {
  // Partition: connectivity groups in first-appearance order, each cut in
  // order into shards of kUpdateShardSize.
  std::vector<std::vector<const StepSample*>> groups;
  for (const StepSample* s : minibatch) {
    auto group = std::find_if(groups.begin(), groups.end(), [&](auto& g) {
      return stackable(g.front()->obs, s->obs);
    });
    if (group == groups.end()) {
      groups.emplace_back();
      group = std::prev(groups.end());
    }
    group->push_back(s);
  }
  std::size_t used = 0;
  for (const auto& group : groups) {
    const std::span<const StepSample* const> rest(group);
    for (std::size_t k = 0; k < rest.size(); k += kUpdateShardSize) {
      if (used == shards_.size()) shards_.push_back(std::make_unique<Shard>());
      const auto chunk =
          rest.subspan(k, std::min(kUpdateShardSize, rest.size() - k));
      shards_[used++]->samples.assign(chunk.begin(), chunk.end());
    }
  }

  const auto inv_batch = 1.0F / static_cast<float>(minibatch.size());
  util::parallel_for(pool, used, [&](std::size_t i) {
    run_shard(*shards_[i], inv_batch);
  });

  // Fold in shard order on this thread: the one place Parameter::grad is
  // written, so the sum never depends on which worker ran which shard.
  // The diagnostics are added row by row in the same order, so they equal
  // a per-sample loop over the samples in shard order exactly.
  nn::zero_grads(params_);
  MinibatchLoss total;
  for (std::size_t i = 0; i < used; ++i) {
    shards_[i]->tape.fold_parameter_grads();
    add_diagnostics(*shards_[i], total);
  }
  return total;
}

void MinibatchGradient::run_shard(Shard& shard, float inv_batch) {
  Tape& tape = shard.tape;
  tape.reset();
  const auto n = static_cast<int>(shard.samples.size());
  shard.parts.clear();
  for (const StepSample* s : shard.samples) shard.parts.push_back(&s->obs);
  if (!stack_observations(shard.parts, shard.obs)) {
    throw std::logic_error("MinibatchGradient: shard is not stackable");
  }
  const int adim = policy_.action_dim(shard.obs);

  shard.actions.reshape_zero(n, adim);
  for (auto* v : {&shard.old_log_prob, &shard.advantage, &shard.returns,
                  &shard.value_old, &shard.value_shift}) {
    v->clear();
  }
  for (int b = 0; b < n; ++b) {
    const StepSample& s = *shard.samples[static_cast<std::size_t>(b)];
    if (static_cast<int>(s.action.size()) != adim) {
      throw std::invalid_argument("MinibatchGradient: action of size " +
                                  std::to_string(s.action.size()) +
                                  " for action_dim " + std::to_string(adim));
    }
    for (int j = 0; j < adim; ++j) {
      shard.actions.at(b, j) =
          static_cast<float>(s.action[static_cast<std::size_t>(j)]);
    }
    shard.old_log_prob.push_back(s.log_prob);
    shard.advantage.push_back(s.advantage);
    shard.returns.push_back(s.return_);
    shard.value_old.push_back(s.value);
    // v_old - ret, the clipped value's offset from the return, is formed
    // in float so each row equals a per-sample loss bit for bit.
    shard.value_shift.push_back(static_cast<double>(
        static_cast<float>(s.value) - static_cast<float>(s.return_)));
  }
  if (!shard.zero_rows || static_cast<int>(shard.zero_rows->size()) != n) {
    shard.zero_rows = std::make_shared<const std::vector<int>>(
        static_cast<std::size_t>(n), 0);
  }
  const auto column = [&](const std::vector<double>& v) {
    return tape.constant(n, 1, v);
  };
  const float clip = static_cast<float>(config_.clip_epsilon);

  // Policy term: ratio = exp(log pi - log pi_old), clipped surrogate.
  const Tape::Var mean = policy_.action_mean(tape, shard.obs);  // n x A
  const Tape::Var log_std = policy_.log_std_row(tape, adim);     // 1 x A
  const Tape::Var log_prob = nn::diag_gaussian_log_prob(
      tape, mean, tape.gather_rows(log_std, shard.zero_rows),
      shard.actions);  // n x 1
  const Tape::Var ratio =
      tape.exp(tape.sub(log_prob, column(shard.old_log_prob)));
  const Tape::Var adv = column(shard.advantage);
  const Tape::Var policy_loss = tape.neg(tape.minimum(
      tape.mul(ratio, adv),
      tape.mul(tape.clip(ratio, 1.0F - clip, 1.0F + clip), adv)));

  // Clipped value loss (PPO2 style).
  const Tape::Var v = policy_.value(tape, shard.obs);  // n x 1
  const Tape::Var v_err = tape.square(tape.sub(v, column(shard.returns)));
  const Tape::Var v_clipped =
      tape.add(tape.clip(tape.sub(v, column(shard.value_old)), -clip, clip),
               column(shard.value_shift));
  const Tape::Var value_loss =
      tape.scale(tape.maximum(v_err, tape.square(v_clipped)), 0.5F);

  // The entropy depends on log_std alone, so every sample's bonus is the
  // same 1 x 1 value.
  const Tape::Var entropy = nn::diag_gaussian_entropy(tape, log_std);
  Tape::Var loss = tape.sum_all(tape.add(
      policy_loss,
      tape.scale(value_loss, static_cast<float>(config_.value_coef))));
  loss = tape.sub(loss, tape.scale(entropy, static_cast<float>(
                                                config_.entropy_coef * n)));
  loss = tape.scale(loss, inv_batch);
  {
    obs::ScopedTimer backward_timer("train/update/backward");
    tape.backward_local(loss);
  }

  shard.out = {loss, log_prob, policy_loss, value_loss, entropy};
}

void MinibatchGradient::add_diagnostics(const Shard& shard,
                                        MinibatchLoss& total) const {
  const Tape& tape = shard.tape;
  total.loss += tape.value(shard.out.loss).at(0, 0);
  const double h = tape.value(shard.out.entropy).at(0, 0);
  for (std::size_t b = 0; b < shard.samples.size(); ++b) {
    const auto row = static_cast<int>(b);
    const double old_lp = shard.old_log_prob[b];
    const double lp_new = tape.value(shard.out.log_prob).at(row, 0);
    total.kl += old_lp - lp_new;
    if (std::abs(std::exp(lp_new - old_lp) - 1.0) > config_.clip_epsilon) {
      total.clipped += 1.0;
    }
    total.policy_loss += tape.value(shard.out.policy_loss).at(row, 0);
    total.value_loss += tape.value(shard.out.value_loss).at(row, 0);
    total.entropy += h;
  }
}

PpoTrainer::PpoTrainer(Policy& policy, Env& env, const PpoConfig& config,
                       std::uint64_t seed)
    : PpoTrainer(policy, std::vector<Env*>{&env}, config, seed, nullptr) {}

PpoTrainer::PpoTrainer(Policy& policy, std::vector<Env*> envs,
                       const PpoConfig& config, std::uint64_t seed,
                       util::ThreadPool* pool)
    : policy_(policy),
      config_(config),
      rng_(seed),
      optimizer_(config.learning_rate),
      params_(policy.parameters()),
      gradient_(policy, config),
      pool_(pool),
      collector_(policy, std::move(envs), seed, pool),
      steps_per_env_((config.rollout_steps + collector_.num_envs() - 1) /
                     collector_.num_envs()),
      health_(params_, config.health, optimizer_) {}

std::vector<double> PpoTrainer::act_deterministic(const Observation& obs) {
  return forward_action_mean(policy_, obs);
}

PpoIterationStats PpoTrainer::train_iteration() {
  obs::ScopedTimer iteration_timer("train/iteration");
  RolloutBuffer buffer;

  obs::ScopedTimer collect_timer("train/collect");
  const VecEnvCollector::CollectStats collected =
      collector_.collect(steps_per_env_, config_.reward_scale, buffer);
  const double collect_s = collect_timer.stop();
  if (collect_s > 0.0) {
    obs::gauge("train/collect/steps_per_s",
               static_cast<double>(collected.steps) / collect_s);
  }
  obs::count("train/env_steps", static_cast<std::uint64_t>(collected.steps));
  total_env_steps_ += collected.steps;

  // Bootstrap flags must be coherent *before* GAE runs — a zeroed
  // truncation bootstrap or an open segment tail is exactly the class of
  // bug PR 1 fixed, and it corrupts advantages silently.
  GDDR_VALIDATE(check_rollout_flags(buffer.samples(), "rl/collect/flags"));

  // Every env segment's tail carries its own bootstrap (truncated /
  // bootstrap_value, set by the collector), so no trailing last_value is
  // needed here.
  {
    obs::ScopedTimer gae_timer("train/gae");
    buffer.compute_gae(config_.gamma, config_.gae_lambda, /*last_value=*/0.0,
                       config_.normalize_advantages);
  }
  GDDR_VALIDATE(check_gae_outputs(buffer.samples(), "rl/gae/finite"));

  obs::ScopedTimer update_timer("train/update");
  PpoIterationStats stats = update(buffer);
  update_timer.stop();
  obs::count("train/iterations");
  stats.steps = collected.steps;
  stats.episodes = collected.episodes;
  stats.mean_episode_reward =
      collected.episodes > 0
          ? collected.episode_reward_sum / collected.episodes
          : 0.0;
  ++iterations_;
  return stats;
}

PpoIterationStats PpoTrainer::update(RolloutBuffer& buffer) {
  PpoIterationStats stats;
  auto& samples = buffer.samples();
  std::vector<size_t> order(samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<const StepSample*> minibatch;

  double policy_loss_acc = 0.0;
  double value_loss_acc = 0.0;
  double entropy_acc = 0.0;
  double kl_acc = 0.0;
  double clip_acc = 0.0;
  long batches = 0;
  util::RunningStat minibatch_loss;  // per-minibatch mean total loss

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config_.minibatch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(config_.minibatch_size));
      const auto batch_size = static_cast<double>(end - start);
      minibatch.clear();
      for (size_t k = start; k < end; ++k) {
        minibatch.push_back(&samples[order[k]]);
      }

      const MinibatchLoss mb = gradient_.compute(minibatch, pool_);
      minibatch_loss.add(mb.loss);
      nn::clip_grad_norm(params_, config_.max_grad_norm);

      if (health_.enabled()) {
        // Deterministic fault injection: poison one gradient entry so
        // tests can prove the recovery path below actually fires.
        if (util::inject(util::FaultSite::kNanGradient) && !params_.empty()) {
          params_.front()->grad.data()[0] =
              std::numeric_limits<float>::quiet_NaN();
        }
        if (!std::isfinite(mb.loss) || !health_.gradients_finite()) {
          // NaN/Inf before the step: skip it, restore last-good weights
          // and optimiser moments, shrink the lr, keep training.
          health_.note_nonfinite();
          ++stats.nonfinite_events;
          health_.rollback(optimizer_);
          ++stats.health_rollbacks;
          continue;
        }
        optimizer_.step(params_);
        if (!health_.parameters_finite()) {
          // The step itself overflowed (e.g. astronomically scaled
          // moments): undo it the same way.
          health_.note_nonfinite();
          ++stats.nonfinite_events;
          health_.rollback(optimizer_);
          ++stats.health_rollbacks;
          continue;
        }
        health_.capture(optimizer_);
      } else {
        optimizer_.step(params_);
      }

      policy_loss_acc += mb.policy_loss / batch_size;
      value_loss_acc += mb.value_loss / batch_size;
      entropy_acc += mb.entropy / batch_size;
      kl_acc += mb.kl / batch_size;
      clip_acc += mb.clipped / batch_size;
      ++batches;
    }
  }

  if (batches > 0) {
    stats.policy_loss = policy_loss_acc / static_cast<double>(batches);
    stats.value_loss = value_loss_acc / static_cast<double>(batches);
    stats.entropy = entropy_acc / static_cast<double>(batches);
    stats.approx_kl = kl_acc / static_cast<double>(batches);
    stats.clip_fraction = clip_acc / static_cast<double>(batches);
  }
  stats.learning_rate = optimizer_.learning_rate();
  // With the watchdog active every non-finite batch was rolled back above,
  // so the reported means must be finite; without it they still are unless
  // the optimisation itself diverged, which this surfaces immediately.
  GDDR_VALIDATE(check_finite_losses(stats, "rl/update/losses"));
  if (obs::enabled()) {
    obs::count("train/minibatches", static_cast<std::uint64_t>(batches));
    obs::gauge("train/loss/minibatch_mean", minibatch_loss.mean());
    obs::gauge("train/loss/minibatch_stddev", minibatch_loss.stddev());
    obs::gauge("train/loss/policy", stats.policy_loss);
    obs::gauge("train/loss/value", stats.value_loss);
    obs::gauge("train/entropy", stats.entropy);
    obs::gauge("train/approx_kl", stats.approx_kl);
    obs::gauge("train/clip_fraction", stats.clip_fraction);
    obs::gauge("train/learning_rate", stats.learning_rate);
    if (stats.nonfinite_events > 0) {
      obs::count("train/health/nonfinite",
                 static_cast<std::uint64_t>(stats.nonfinite_events));
      obs::count("train/health/rollbacks",
                 static_cast<std::uint64_t>(stats.health_rollbacks));
    }
  }
  return stats;
}

void PpoTrainer::train(long total_steps, const Callback& callback) {
  const long target = total_env_steps_ + total_steps;
  while (total_env_steps_ < target) {
    const PpoIterationStats stats = train_iteration();
    if (callback) callback(stats);
  }
}

}  // namespace gddr::rl
