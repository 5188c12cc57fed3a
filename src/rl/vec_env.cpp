#include "rl/vec_env.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

#include "nn/gaussian.hpp"
#include "obs/metrics.hpp"
#include "rl/forward.hpp"
#include "util/contract.hpp"

namespace gddr::rl {

VecEnvCollector::VecEnvCollector(Policy& policy, std::vector<Env*> envs,
                                 std::uint64_t seed, util::ThreadPool* pool)
    : policy_(policy), pool_(pool) {
  if (envs.empty()) {
    throw std::invalid_argument("VecEnvCollector: no environments");
  }
  // Streams are split off up front in env order, so env i's stream is a
  // function of (seed, i) alone — never of the worker count.
  util::Rng base(seed);
  slots_.reserve(envs.size());
  for (Env* env : envs) {
    if (env == nullptr) {
      throw std::invalid_argument("VecEnvCollector: null environment");
    }
    EnvSlot slot;
    slot.env = env;
    slot.rng = base.split();
    slots_.push_back(std::move(slot));
  }
}

VecEnvCollector::CollectStats VecEnvCollector::collect(
    int steps_per_env, double reward_scale, RolloutBuffer& buffer) {
  if (steps_per_env <= 0) {
    throw std::invalid_argument("VecEnvCollector: steps_per_env <= 0");
  }
  const auto n = slots_.size();
  std::vector<std::vector<StepSample>> trajectories(n);
  std::vector<CollectStats> env_stats(n);

  // Each task reads shared policy parameters (forward passes build
  // private tapes) and writes only to its own slot/trajectory/stats
  // entries, so tasks are independent and the per-env results do not
  // depend on scheduling.
  // Sampled only when metrics are on; each slot writes its own gauge, so
  // the registry lock is hit once per env per collect, not per step.
  const bool metrics = obs::enabled();
  util::parallel_for(pool_, n, [&](std::size_t i) {
    EnvSlot& slot = slots_[i];
    std::vector<StepSample>& traj = trajectories[i];
    CollectStats& stats = env_stats[i];
    traj.reserve(static_cast<size_t>(steps_per_env));
    const auto slot_start = metrics ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};

    for (int step = 0; step < steps_per_env; ++step) {
      if (slot.needs_reset) {
        slot.obs = slot.env->reset();
        slot.episode_reward = 0.0;
        slot.needs_reset = false;
      }
      const PolicyForward fwd = forward_policy(policy_, slot.obs);
      StepSample sample;
      sample.action = nn::sample_diag_gaussian(fwd.mean, fwd.log_std,
                                               slot.rng);
      sample.obs = slot.obs;
      sample.log_prob = action_log_prob(sample.action, fwd.mean,
                                        fwd.log_std);
      sample.value = fwd.value;

      Env::StepResult result = slot.env->step(sample.action);
      ++stats.steps;
      slot.episode_reward += result.reward;
      sample.reward = result.reward * reward_scale;
      sample.done = result.done;
      if (result.done) {
        if (result.truncated) {
          // Time-limit ending: bootstrap from the terminal observation
          // instead of zeroing the successor value.
          sample.truncated = true;
          sample.bootstrap_value = forward_value(policy_, result.obs);
        }
        stats.episode_reward_sum += slot.episode_reward;
        ++stats.episodes;
        slot.obs = slot.env->reset();
        slot.episode_reward = 0.0;
      } else {
        slot.obs = std::move(result.obs);
      }
      traj.push_back(std::move(sample));
    }

    // Segment tail cut mid-episode: bootstrap from the env's next
    // observation so GAE neither zeroes it nor chains into the trajectory
    // of the next env in the merged buffer.
    if (!traj.back().done) {
      traj.back().truncated = true;
      traj.back().bootstrap_value = forward_value(policy_, slot.obs);
    }
    GDDR_ENSURE(traj.back().done || traj.back().truncated,
                "rl/collect/segment-tail", "env", i);

    if (metrics) {
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        slot_start)
              .count();
      if (seconds > 0.0) {
        obs::gauge("collect/env/" + std::to_string(i) + "/steps_per_s",
                   static_cast<double>(stats.steps) / seconds);
      }
    }
  });

  CollectStats total;
  for (std::size_t i = 0; i < n; ++i) {
    for (StepSample& s : trajectories[i]) buffer.add(std::move(s));
    total.steps += env_stats[i].steps;
    total.episodes += env_stats[i].episodes;
    total.episode_reward_sum += env_stats[i].episode_reward_sum;
  }
  obs::count("collect/steps", static_cast<std::uint64_t>(total.steps));
  obs::count("collect/episodes", static_cast<std::uint64_t>(total.episodes));
  return total;
}

}  // namespace gddr::rl
