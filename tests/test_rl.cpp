#include <gtest/gtest.h>

#include <cmath>

#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "rl/forward.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "topo/zoo.hpp"

namespace gddr::rl {
namespace {

// ---------------- GAE ----------------

StepSample make_sample(double reward, double value, bool done) {
  StepSample s;
  s.reward = reward;
  s.value = value;
  s.done = done;
  return s;
}

TEST(Gae, SingleStepTerminal) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 0.5, true));
  buffer.compute_gae(0.99, 0.95, /*last_value=*/123.0, false);
  // Terminal: delta = r - V = 0.5; bootstrap ignored.
  EXPECT_NEAR(buffer.samples()[0].advantage, 0.5, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].return_, 1.0, 1e-12);
}

TEST(Gae, BootstrapUsedWhenNotDone) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 0.5, false));
  buffer.compute_gae(0.9, 1.0, /*last_value=*/2.0, false);
  // delta = 1 + 0.9*2 - 0.5 = 2.3
  EXPECT_NEAR(buffer.samples()[0].advantage, 2.3, 1e-12);
}

TEST(Gae, HandComputedTwoSteps) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 1.0, false));
  buffer.add(make_sample(2.0, 2.0, true));
  const double gamma = 0.5;
  const double lambda = 0.5;
  buffer.compute_gae(gamma, lambda, 0.0, false);
  // Step 1 (terminal): delta1 = 2 - 2 = 0, A1 = 0.
  // Step 0: delta0 = 1 + 0.5*2 - 1 = 1; A0 = 1 + 0.25*0 = 1.
  EXPECT_NEAR(buffer.samples()[1].advantage, 0.0, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].advantage, 1.0, 1e-12);
  EXPECT_NEAR(buffer.samples()[0].return_, 2.0, 1e-12);
}

TEST(Gae, DoneBlocksCreditAcrossEpisodes) {
  RolloutBuffer buffer;
  buffer.add(make_sample(0.0, 0.0, true));   // episode 1 ends
  buffer.add(make_sample(10.0, 0.0, true));  // episode 2
  buffer.compute_gae(0.99, 0.95, 0.0, false);
  // The huge reward of episode 2 must not leak into episode 1.
  EXPECT_NEAR(buffer.samples()[0].advantage, 0.0, 1e-12);
}

TEST(Gae, NormalisationZeroMeanUnitStd) {
  RolloutBuffer buffer;
  for (int i = 0; i < 10; ++i) {
    buffer.add(make_sample(i, 0.0, i == 9));
  }
  buffer.compute_gae(0.9, 0.9, 0.0, true);
  double mean = 0.0;
  for (const auto& s : buffer.samples()) mean += s.advantage;
  mean /= 10.0;
  double var = 0.0;
  for (const auto& s : buffer.samples()) {
    var += (s.advantage - mean) * (s.advantage - mean);
  }
  EXPECT_NEAR(mean, 0.0, 1e-9);
  EXPECT_NEAR(std::sqrt(var / 10.0), 1.0, 1e-6);
}

TEST(Gae, LambdaOneEqualsMonteCarloReturns) {
  RolloutBuffer buffer;
  buffer.add(make_sample(1.0, 0.0, false));
  buffer.add(make_sample(1.0, 0.0, false));
  buffer.add(make_sample(1.0, 0.0, true));
  const double gamma = 0.5;
  buffer.compute_gae(gamma, 1.0, 0.0, false);
  // Discounted returns: 1 + 0.5 + 0.25 = 1.75 etc.; V=0 so A = G.
  EXPECT_NEAR(buffer.samples()[0].return_, 1.75, 1e-12);
  EXPECT_NEAR(buffer.samples()[1].return_, 1.5, 1e-12);
  EXPECT_NEAR(buffer.samples()[2].return_, 1.0, 1e-12);
}

// ---------------- PPO on a trivial continuous-control task ----------------

// Reward is highest when the action matches a fixed target; the state is
// constant, so the policy just has to shift its mean.
class TargetEnv final : public Env {
 public:
  explicit TargetEnv(double target, int episode_len = 8)
      : target_(target), episode_len_(episode_len) {}

  Observation reset() override {
    t_ = 0;
    return make_obs();
  }

  StepResult step(std::span<const double> action) override {
    StepResult r;
    const double err = action[0] - target_;
    r.reward = -err * err;
    r.done = ++t_ >= episode_len_;
    if (!r.done) r.obs = make_obs();
    return r;
  }

  int action_dim() const override { return 1; }

 private:
  Observation make_obs() const {
    Observation obs;
    obs.flat = {1.0};
    obs.num_nodes = 1;
    obs.nodes = nn::Tensor(1, 1, 1.0F);
    obs.edges = nn::Tensor(0, 1);
    obs.globals = nn::Tensor(1, 1);
    return obs;
  }
  double target_;
  int episode_len_;
  int t_ = 0;
};

TEST(Ppo, LearnsConstantTarget) {
  util::Rng rng(7);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {16};
  pcfg.vf_hidden = {16};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.6);
  PpoConfig cfg;
  cfg.rollout_steps = 128;
  cfg.minibatch_size = 32;
  cfg.epochs = 4;
  cfg.learning_rate = 3e-3;
  PpoTrainer trainer(policy, env, cfg, 11);

  double first_reward = 0.0;
  for (int iter = 0; iter < 30; ++iter) {
    const auto stats = trainer.train_iteration();
    if (iter == 0) first_reward = stats.mean_episode_reward;
  }
  const Observation obs = env.reset();
  const auto mean = trainer.act_deterministic(obs);
  EXPECT_NEAR(mean[0], 0.6, 0.15);
  EXPECT_GT(trainer.total_env_steps(), 3000);
  (void)first_reward;
}

TEST(Ppo, StatsPopulated) {
  util::Rng rng(8);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.0);
  PpoConfig cfg;
  cfg.rollout_steps = 64;
  cfg.minibatch_size = 32;
  PpoTrainer trainer(policy, env, cfg, 3);
  const auto stats = trainer.train_iteration();
  EXPECT_EQ(stats.steps, 64);
  EXPECT_GT(stats.episodes, 0);
  EXPECT_NE(stats.value_loss, 0.0);
  EXPECT_NE(stats.entropy, 0.0);
}

TEST(Ppo, TrainRunsUntilStepTarget) {
  util::Rng rng(9);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.0);
  PpoConfig cfg;
  cfg.rollout_steps = 32;
  cfg.minibatch_size = 16;
  PpoTrainer trainer(policy, env, cfg, 5);
  int callbacks = 0;
  trainer.train(100, [&](const PpoIterationStats&) { ++callbacks; });
  EXPECT_GE(trainer.total_env_steps(), 100);
  EXPECT_EQ(callbacks, 4);  // ceil(100/32) = 4 iterations
}

TEST(Ppo, DeterministicActionIsMean) {
  util::Rng rng(10);
  core::MlpPolicyConfig pcfg;
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(0.0);
  PpoTrainer trainer(policy, env, PpoConfig{}, 1);
  const Observation obs = env.reset();
  const auto a1 = trainer.act_deterministic(obs);
  const auto a2 = trainer.act_deterministic(obs);
  ASSERT_EQ(a1.size(), 1U);
  EXPECT_EQ(a1[0], a2[0]);  // no sampling noise
}

TEST(Ppo, RewardScaleAppliedToValueTargetsNotStats) {
  util::Rng rng(11);
  core::MlpPolicyConfig pcfg;
  pcfg.pi_hidden = {8};
  pcfg.vf_hidden = {8};
  core::MlpPolicy policy(1, 1, pcfg, rng);
  TargetEnv env(5.0);  // large constant negative rewards
  PpoConfig cfg;
  cfg.rollout_steps = 32;
  cfg.reward_scale = 0.01;
  PpoTrainer trainer(policy, env, cfg, 2);
  const auto stats = trainer.train_iteration();
  // mean_episode_reward reports unscaled rewards (around -25 * 8 steps).
  EXPECT_LT(stats.mean_episode_reward, -50.0);
}

// ---------------- inference forwards ----------------

core::ScenarioParams tiny_scenario_params() {
  core::ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 1;
  p.test_sequences = 1;
  return p;
}

// Steps `env` with a constant action and returns its first `count`
// observations (distinct demand windows on one topology).
std::vector<Observation> observations(Env& env, int count) {
  std::vector<Observation> out{env.reset()};
  const std::vector<double> action(static_cast<std::size_t>(env.action_dim()),
                                   0.1);
  while (static_cast<int>(out.size()) < count) {
    out.push_back(env.step(action).obs);
  }
  return out;
}

void expect_rows_match_action_mean(Policy& policy,
                                   const std::vector<Observation>& obs) {
  std::vector<const Observation*> ptrs;
  for (const Observation& o : obs) ptrs.push_back(&o);
  const std::vector<std::vector<double>> rows =
      forward_action_means(policy, ptrs);
  ASSERT_EQ(rows.size(), obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    nn::Tape tape;
    const nn::Tensor& mean = tape.value(policy.action_mean(tape, obs[i]));
    ASSERT_EQ(rows[i].size(), static_cast<std::size_t>(mean.cols()));
    for (int j = 0; j < mean.cols(); ++j) {
      EXPECT_EQ(rows[i][static_cast<std::size_t>(j)], mean.at(0, j))
          << "row " << i << " col " << j;
    }
    EXPECT_EQ(forward_action_mean(policy, obs[i]), rows[i]);
  }
}

// Policies without a stacked path still get one row per observation.
TEST(ForwardActionMeans, MlpPolicyRowsEqualPerObservationMeans) {
  util::Rng rng(30);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng)};
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  core::RoutingEnv env(scenarios, env_cfg, 31);
  const int n = env.current_graph().num_nodes();
  core::MlpPolicy policy(env_cfg.memory * n * n, env.action_dim(),
                         core::MlpPolicyConfig{}, rng);
  expect_rows_match_action_mean(policy, observations(env, 3));
}

TEST(ForwardActionMeans, IterativeGnnPolicyRowsEqualPerObservationMeans) {
  util::Rng rng(32);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng)};
  core::IterativeEnvConfig env_cfg;
  env_cfg.memory = 2;
  core::IterativeRoutingEnv env(scenarios, env_cfg, 33);
  core::IterativeGnnPolicyConfig pcfg;
  pcfg.memory = env_cfg.memory;
  core::IterativeGnnPolicy policy(pcfg, rng);
  expect_rows_match_action_mean(policy, observations(env, 3));
}

TEST(ForwardActionMeans, GnnPolicyStackedRowsEqualPerObservationMeans) {
  util::Rng rng(34);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("Abilene"), tiny_scenario_params(), rng)};
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  core::RoutingEnv env(scenarios, env_cfg, 35);
  core::GnnPolicyConfig pcfg;
  pcfg.memory = env_cfg.memory;
  core::GnnPolicy policy(pcfg, rng);
  expect_rows_match_action_mean(policy, observations(env, 3));
}

}  // namespace
}  // namespace gddr::rl
