#include "rl/ppo.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

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

  double policy_loss_acc = 0.0;
  double value_loss_acc = 0.0;
  double entropy_acc = 0.0;
  double kl_acc = 0.0;
  double clip_acc = 0.0;
  long batches = 0;
  util::RunningStat minibatch_loss;  // per-minibatch mean total loss

  const float clip = static_cast<float>(config_.clip_epsilon);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng_.shuffle(order);
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(config_.minibatch_size)) {
      const size_t end = std::min(
          order.size(), start + static_cast<size_t>(config_.minibatch_size));
      const auto batch_size = static_cast<float>(end - start);

      // Member tape, reset per minibatch: the arena recycles every
      // value/grad buffer, so steady-state updates allocate nothing.
      // Only this main-thread tape gets the pool — collector workers run
      // their own tapes, and handing them the same pool would deadlock.
      Tape& tape = update_tape_;
      tape.reset();
      tape.set_thread_pool(pool_);
      Tape::Var total_loss = tape.zeros(1, 1);
      double batch_kl = 0.0;
      double batch_clipfrac = 0.0;
      double batch_policy_loss = 0.0;
      double batch_value_loss = 0.0;
      double batch_entropy = 0.0;

      for (size_t k = start; k < end; ++k) {
        const StepSample& s = samples[order[k]];
        const int adim = static_cast<int>(s.action.size());

        const Tape::Var mean = policy_.action_mean(tape, s.obs);
        const Tape::Var log_std = policy_.log_std_row(tape, adim);
        const Tensor action_row = Tensor::row(
            std::span<const double>(s.action.data(), s.action.size()));
        const Tape::Var log_prob = nn::diag_gaussian_log_prob(
            tape, mean, log_std, action_row);  // 1x1

        // ratio = exp(logpi - logpi_old)
        const Tape::Var ratio = tape.exp(tape.add_scalar(
            log_prob, static_cast<float>(-s.log_prob)));
        const auto adv = static_cast<float>(s.advantage);
        const Tape::Var surr1 = tape.scale(ratio, adv);
        const Tape::Var surr2 =
            tape.scale(tape.clip(ratio, 1.0F - clip, 1.0F + clip), adv);
        const Tape::Var policy_obj = tape.minimum(surr1, surr2);
        const Tape::Var policy_loss = tape.neg(policy_obj);

        // Clipped value loss (PPO2 style).
        const Tape::Var v = policy_.value(tape, s.obs);
        const auto v_old = static_cast<float>(s.value);
        const auto ret = static_cast<float>(s.return_);
        const Tape::Var v_err = tape.square(tape.add_scalar(v, -ret));
        const Tape::Var v_clipped = tape.add_scalar(
            tape.clip(tape.add_scalar(v, -v_old), -clip, clip),
            v_old - ret);
        const Tape::Var v_err_clipped = tape.square(v_clipped);
        const Tape::Var value_loss =
            tape.scale(tape.maximum(v_err, v_err_clipped), 0.5F);

        const Tape::Var entropy = nn::diag_gaussian_entropy(tape, log_std);

        Tape::Var loss = tape.add(
            policy_loss,
            tape.scale(value_loss, static_cast<float>(config_.value_coef)));
        loss = tape.sub(
            loss,
            tape.scale(entropy, static_cast<float>(config_.entropy_coef)));
        total_loss = tape.add(total_loss, loss);

        // Diagnostics.
        const double lp_new = tape.value(log_prob).at(0, 0);
        const double r = std::exp(lp_new - s.log_prob);
        batch_kl += s.log_prob - lp_new;
        if (std::abs(r - 1.0) > config_.clip_epsilon) batch_clipfrac += 1.0;
        batch_policy_loss += tape.value(policy_loss).at(0, 0);
        batch_value_loss += tape.value(value_loss).at(0, 0);
        batch_entropy += tape.value(entropy).at(0, 0);
      }

      total_loss = tape.scale(total_loss, 1.0F / batch_size);
      minibatch_loss.add(tape.value(total_loss).at(0, 0));
      nn::zero_grads(params_);
      {
        obs::ScopedTimer backward_timer("train/update/backward");
        tape.backward(total_loss);
      }
      nn::clip_grad_norm(params_, config_.max_grad_norm);

      if (health_.enabled()) {
        // Deterministic fault injection: poison one gradient entry so
        // tests can prove the recovery path below actually fires.
        if (util::inject(util::FaultSite::kNanGradient) && !params_.empty()) {
          params_.front()->grad.data()[0] =
              std::numeric_limits<float>::quiet_NaN();
        }
        const double loss_value = tape.value(total_loss).at(0, 0);
        if (!std::isfinite(loss_value) || !health_.gradients_finite()) {
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

      policy_loss_acc += batch_policy_loss / batch_size;
      value_loss_acc += batch_value_loss / batch_size;
      entropy_acc += batch_entropy / batch_size;
      kl_acc += batch_kl / batch_size;
      clip_acc += batch_clipfrac / batch_size;
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
