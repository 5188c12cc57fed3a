#include "core/experiment.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/fault.hpp"

namespace gddr::core {

ScenarioParams experiment_scenario_params() {
  ScenarioParams p;  // 60 DMs, cycle 10, 7 train / 3 test (paper §VIII-D)
  // Sparse pairs with a few very large elephants: the regime where the
  // routing choice matters most (shortest-path routing lands ~2x above
  // the optimum) and where per-node demand sums clearly localise the
  // elephants for the GNN.
  p.demand.pair_density = 0.15;
  p.demand.mouse_mean = 150.0;
  p.demand.mouse_stddev = 40.0;
  p.demand.elephant_mean = 4000.0;
  p.demand.elephant_stddev = 500.0;
  p.demand.elephant_prob = 0.06;
  return p;
}

rl::PpoConfig routing_ppo_config() {
  rl::PpoConfig cfg;
  cfg.rollout_steps = 512;
  cfg.minibatch_size = 64;
  cfg.epochs = 4;
  cfg.learning_rate = 3e-3;
  // A small entropy bonus plus the wide initial log-std below keep the
  // exploration Gaussian from collapsing before the (initially weak)
  // reward gradient is picked up.
  cfg.entropy_coef = 5e-3;
  cfg.gamma = 0.0;  // bandit credit — see header
  cfg.gae_lambda = 0.0;
  cfg.reward_scale = 1.0;
  return cfg;
}

rl::PpoConfig iterative_ppo_config(int edges_per_step) {
  rl::PpoConfig cfg = routing_ppo_config();
  // Episodes are one demand matrix long (|E| micro-steps, reward on the
  // last); with gamma = lambda = 1 every micro-step's advantage is
  // exactly (final reward - V(s)) — undiscounted Monte-Carlo credit for
  // the weight vector that earned the reward, with no cross-DM leakage.
  cfg.gamma = 1.0;
  cfg.gae_lambda = 1.0;
  cfg.rollout_steps = 16 * std::max(2, edges_per_step);
  return cfg;
}

GnnPolicyConfig experiment_gnn_config(int memory) {
  GnnPolicyConfig cfg;
  cfg.memory = memory;
  cfg.latent = 16;
  cfg.steps = 2;
  cfg.mlp_hidden = {32};
  cfg.init_log_std = -0.3;  // sigma ~0.74: explore most of the action cube
  return cfg;
}

IterativeGnnPolicyConfig experiment_iterative_gnn_config(int memory) {
  IterativeGnnPolicyConfig cfg;
  cfg.memory = memory;
  cfg.latent = 16;
  cfg.steps = 2;
  cfg.mlp_hidden = {32};
  cfg.init_log_std = -0.3;
  return cfg;
}

MlpPolicyConfig experiment_mlp_config() {
  MlpPolicyConfig cfg;
  cfg.pi_hidden = {128, 128};
  cfg.vf_hidden = {128, 128};
  cfg.init_log_std = -0.3;
  return cfg;
}

long bench_train_steps(long default_steps) {
  if (const char* steps = std::getenv("GDDR_TRAIN_STEPS")) {
    const long parsed = std::strtol(steps, nullptr, 10);
    if (parsed > 0) return parsed;
  }
  if (const char* scale = std::getenv("GDDR_BENCH_SCALE")) {
    if (std::string(scale) == "paper") return 500000;
  }
  return default_steps;
}

Experiment::Experiment(ExperimentConfig config, util::ThreadPool* pool)
    : config_(std::move(config)) {
  if (config_.num_envs <= 0) {
    throw std::invalid_argument("Experiment: num_envs <= 0");
  }
  if (config_.checkpoint_every_iterations <= 0) {
    throw std::invalid_argument(
        "Experiment: checkpoint_every_iterations <= 0");
  }
  if (config_.metrics_every_iterations <= 0) {
    throw std::invalid_argument("Experiment: metrics_every_iterations <= 0");
  }
  if (!config_.metrics_path.empty()) {
    obs::Registry::instance().enable();
    metrics_sink_ = std::make_unique<obs::JsonlSink>(config_.metrics_path);
  }
  envs_ = make_vec_envs(config_.scenarios, config_.env, config_.train_seed,
                        config_.num_envs);
  util::Rng policy_rng(config_.policy_seed);
  policy_ = std::make_unique<GnnPolicy>(config_.policy, policy_rng);
  std::vector<rl::Env*> env_ptrs;
  env_ptrs.reserve(envs_.size());
  for (const auto& env : envs_) env_ptrs.push_back(env.get());
  trainer_ = std::make_unique<rl::PpoTrainer>(
      *policy_, std::move(env_ptrs), config_.ppo, config_.train_seed, pool);
}

std::vector<rl::PpoIterationStats> Experiment::train(long total_steps) {
  std::vector<rl::PpoIterationStats> history;
  const long target = trainer_->total_env_steps() + total_steps;
  while (trainer_->total_env_steps() < target) {
    // The abort site fires between iterations — after the previous
    // checkpoint landed — which is exactly where a SIGKILL would leave a
    // production run.
    if (util::inject(util::FaultSite::kTrainAbort)) {
      throw std::runtime_error("Experiment: fault-injected training abort");
    }
    history.push_back(trainer_->train_iteration());
    if (!config_.checkpoint_path.empty() &&
        trainer_->iterations() % config_.checkpoint_every_iterations == 0) {
      trainer_->save_checkpoint(config_.checkpoint_path);
    }
    // The metrics record lands after the checkpoint so its ckpt/write
    // timer covers every write of this iteration.
    if (metrics_sink_ &&
        trainer_->iterations() % config_.metrics_every_iterations == 0) {
      metrics_sink_->append(
          obs::make_record(static_cast<int>(trainer_->iterations()) - 1,
                           obs::Registry::instance().snapshot()));
    }
  }
  return history;
}

void Experiment::resume_from(const std::string& checkpoint_path) {
  trainer_->load_checkpoint(checkpoint_path);
}

}  // namespace gddr::core
