#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <span>

#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "nn/gaussian.hpp"
#include "rl/forward.hpp"
#include "rl/ppo.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_env.hpp"
#include "topo/zoo.hpp"
#include "util/thread_pool.hpp"

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

// ---------------- stacked observations ----------------

std::vector<const Observation*> pointers(const std::vector<Observation>& obs) {
  std::vector<const Observation*> ptrs;
  for (const Observation& o : obs) ptrs.push_back(&o);
  return ptrs;
}

// Row b of a batch-of-B action_mean / value equals the batch-of-one call
// on copy b, bit for bit.
void expect_batch_rows_equal_batch_of_one(Policy& policy,
                                          const std::vector<Observation>& obs) {
  Observation stacked;
  ASSERT_TRUE(stack_observations(pointers(obs), stacked));
  ASSERT_EQ(stacked.batch, static_cast<int>(obs.size()));
  nn::Tape tape;
  const nn::Tensor mean = tape.value(policy.action_mean(tape, stacked));
  const nn::Tensor value = tape.value(policy.value(tape, stacked));
  ASSERT_EQ(mean.rows(), stacked.batch);
  ASSERT_EQ(mean.cols(), policy.action_dim(stacked));
  ASSERT_EQ(value.rows(), stacked.batch);
  ASSERT_EQ(value.cols(), 1);
  for (int b = 0; b < stacked.batch; ++b) {
    const Observation& one = obs[static_cast<std::size_t>(b)];
    nn::Tape single;
    const nn::Tensor& m = single.value(policy.action_mean(single, one));
    ASSERT_EQ(m.rows(), 1);
    for (int j = 0; j < m.cols(); ++j) {
      EXPECT_EQ(mean.at(b, j), m.at(0, j)) << "row " << b << " col " << j;
    }
    EXPECT_EQ(value.at(b, 0), single.value(policy.value(single, one)).at(0, 0))
        << "row " << b;
  }
}

TEST(StackedPolicy, MlpBatchRowsEqualBatchOfOne) {
  util::Rng rng(50);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng)};
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  core::RoutingEnv env(scenarios, env_cfg, 51);
  const int n = env.current_graph().num_nodes();
  core::MlpPolicy policy(env_cfg.memory * n * n, env.action_dim(),
                         core::MlpPolicyConfig{}, rng);
  expect_batch_rows_equal_batch_of_one(policy, observations(env, 5));
}

TEST(StackedPolicy, GnnBatchRowsEqualBatchOfOne) {
  util::Rng rng(52);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("Abilene"), tiny_scenario_params(), rng)};
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  core::RoutingEnv env(scenarios, env_cfg, 53);
  core::GnnPolicyConfig pcfg;
  pcfg.memory = env_cfg.memory;
  core::GnnPolicy policy(pcfg, rng);
  expect_batch_rows_equal_batch_of_one(policy, observations(env, 5));
}

TEST(StackedPolicy, IterativeGnnBatchRowsEqualBatchOfOne) {
  util::Rng rng(54);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng)};
  core::IterativeEnvConfig env_cfg;
  env_cfg.memory = 2;
  core::IterativeRoutingEnv env(scenarios, env_cfg, 55);
  core::IterativeGnnPolicyConfig pcfg;
  pcfg.memory = env_cfg.memory;
  core::IterativeGnnPolicy policy(pcfg, rng);
  expect_batch_rows_equal_batch_of_one(policy, observations(env, 5));
}

TEST(StackObservations, StacksRowsAndRejectsMixedConnectivity) {
  util::Rng rng(56);
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  core::RoutingEnv ring({core::make_scenario(topo::by_name("SmallRing"),
                                             tiny_scenario_params(), rng)},
                        env_cfg, 57);
  core::RoutingEnv abilene({core::make_scenario(topo::by_name("Abilene"),
                                                tiny_scenario_params(), rng)},
                           env_cfg, 58);
  const std::vector<Observation> obs = observations(ring, 3);
  Observation stacked;
  ASSERT_TRUE(stack_observations(pointers(obs), stacked));
  EXPECT_EQ(stacked.batch, 3);
  EXPECT_EQ(stacked.senders, obs[0].senders);
  EXPECT_EQ(stacked.num_nodes, obs[0].num_nodes);
  EXPECT_EQ(stacked.nodes.rows(), 3 * obs[0].nodes.rows());
  EXPECT_EQ(stacked.flat.size(), 3 * obs[0].flat.size());
  for (int j = 0; j < obs[2].nodes.cols(); ++j) {
    EXPECT_EQ(stacked.nodes.at(2 * obs[0].nodes.rows(), j),
              obs[2].nodes.at(0, j));
  }
  // A stacked observation stacks again: batches add up.
  const Observation* twice[] = {&stacked, &obs[1]};
  Observation restacked;
  ASSERT_TRUE(stack_observations(twice, restacked));
  EXPECT_EQ(restacked.batch, 4);

  const Observation other = abilene.reset();
  const Observation* mixed[] = {&obs[0], &other};
  EXPECT_FALSE(stackable(obs[0], other));
  EXPECT_FALSE(stack_observations(mixed, stacked));
  EXPECT_FALSE(stack_observations({}, stacked));
}

// MLP forwards copy their input rows through the tape's arena, so repeated
// forwards on one tape leave the arena's pool flat (an adopted heap
// buffer would add one pooled buffer per forward).
TEST(StackedPolicy, MlpForwardsLeaveArenaPoolFlat) {
  util::Rng rng(59);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng)};
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  core::RoutingEnv env(scenarios, env_cfg, 60);
  const int n = env.current_graph().num_nodes();
  core::MlpPolicy policy(env_cfg.memory * n * n, env.action_dim(),
                         core::MlpPolicyConfig{}, rng);
  const std::vector<Observation> obs = observations(env, 3);
  Observation stacked;
  ASSERT_TRUE(stack_observations(pointers(obs), stacked));
  nn::Tape tape;
  auto forward = [&] {
    tape.reset();
    policy.action_mean(tape, obs[0]);
    policy.value(tape, obs[0]);
    policy.action_mean(tape, stacked);
    policy.value(tape, stacked);
  };
  forward();
  tape.reset();
  const std::size_t pooled = tape.arena_pooled();
  const std::uint64_t misses = tape.arena_misses();
  EXPECT_GT(pooled, 0U);
  for (int i = 0; i < 10; ++i) forward();
  tape.reset();
  EXPECT_EQ(tape.arena_pooled(), pooled);
  EXPECT_EQ(tape.arena_misses(), misses);
}

// ---------------- value-only bootstrap ----------------

class CountingPolicy final : public Policy {
 public:
  explicit CountingPolicy(Policy& inner) : inner_(inner) {}

  int action_dim(const Observation& obs) const override {
    return inner_.action_dim(obs);
  }
  nn::Tape::Var action_mean(nn::Tape& tape, const Observation& obs) override {
    ++mean_calls;
    return inner_.action_mean(tape, obs);
  }
  nn::Tape::Var value(nn::Tape& tape, const Observation& obs) override {
    ++value_calls;
    return inner_.value(tape, obs);
  }
  nn::Tape::Var log_std_row(nn::Tape& tape, int action_dim) override {
    return inner_.log_std_row(tape, action_dim);
  }
  std::vector<nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  std::string name() const override { return inner_.name(); }

  std::atomic<long> mean_calls{0};
  std::atomic<long> value_calls{0};

 private:
  Policy& inner_;
};

TEST(VecEnvBootstrap, BootstrapsRunTheValueNetOnly) {
  util::Rng rng(61);
  const std::vector<core::Scenario> scenarios{core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng)};
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  auto envs = core::make_vec_envs(scenarios, env_cfg, 62, 2);
  std::vector<Env*> env_ptrs;
  for (auto& e : envs) env_ptrs.push_back(e.get());
  core::GnnPolicyConfig pcfg;
  pcfg.memory = env_cfg.memory;
  core::GnnPolicy inner(pcfg, rng);
  CountingPolicy policy(inner);
  VecEnvCollector collector(policy, env_ptrs, 63);
  RolloutBuffer buffer;
  const auto stats = collector.collect(25, 1.0, buffer);
  long bootstraps = 0;
  for (const StepSample& s : buffer.samples()) bootstraps += s.truncated;
  ASSERT_GE(bootstraps, 4);  // episode ends plus both segment tails
  // One action_mean and one value per step; every bootstrap is one more
  // value call and no action_mean.
  EXPECT_EQ(policy.mean_calls.load(), stats.steps);
  EXPECT_EQ(policy.value_calls.load(), stats.steps + bootstraps);
  for (const StepSample& s : buffer.samples()) {
    if (s.truncated) {
      EXPECT_TRUE(std::isfinite(s.bootstrap_value));
    }
  }
}

// ---------------- sharded PPO update ----------------

// The per-sample PPO loss the sharded update replaced, kept as the oracle:
// two batch-of-one forwards per sample on one tape, the loss summed sample
// by sample in minibatch order, scaled by 1 / |minibatch| and
// back-propagated with Tape::backward().  Leaves the gradient in
// Parameter::grad.
MinibatchLoss reference_loss(Policy& policy, const PpoConfig& config,
                             std::span<const StepSample* const> minibatch) {
  using Var = nn::Tape::Var;
  nn::Tape tape;
  const auto clip = static_cast<float>(config.clip_epsilon);
  Var total = tape.zeros(1, 1);
  MinibatchLoss sums;
  for (const StepSample* s : minibatch) {
    const int adim = static_cast<int>(s->action.size());
    const Var mean = policy.action_mean(tape, s->obs);
    const Var log_std = policy.log_std_row(tape, adim);
    const Var log_prob = nn::diag_gaussian_log_prob(
        tape, mean, log_std,
        nn::Tensor::row(std::span<const double>(s->action)));
    const Var ratio =
        tape.exp(tape.add_scalar(log_prob, static_cast<float>(-s->log_prob)));
    const auto adv = static_cast<float>(s->advantage);
    const Var policy_loss = tape.neg(tape.minimum(
        tape.scale(ratio, adv),
        tape.scale(tape.clip(ratio, 1.0F - clip, 1.0F + clip), adv)));
    const Var v = policy.value(tape, s->obs);
    const auto v_old = static_cast<float>(s->value);
    const auto ret = static_cast<float>(s->return_);
    const Var v_err = tape.square(tape.add_scalar(v, -ret));
    const Var v_clipped = tape.add_scalar(
        tape.clip(tape.add_scalar(v, -v_old), -clip, clip), v_old - ret);
    const Var value_loss =
        tape.scale(tape.maximum(v_err, tape.square(v_clipped)), 0.5F);
    const Var entropy = nn::diag_gaussian_entropy(tape, log_std);
    Var loss = tape.add(
        policy_loss,
        tape.scale(value_loss, static_cast<float>(config.value_coef)));
    loss = tape.sub(
        loss, tape.scale(entropy, static_cast<float>(config.entropy_coef)));
    total = tape.add(total, loss);

    const double lp_new = tape.value(log_prob).at(0, 0);
    sums.kl += s->log_prob - lp_new;
    if (std::abs(std::exp(lp_new - s->log_prob) - 1.0) > config.clip_epsilon) {
      sums.clipped += 1.0;
    }
    sums.policy_loss += tape.value(policy_loss).at(0, 0);
    sums.value_loss += tape.value(value_loss).at(0, 0);
    sums.entropy += tape.value(entropy).at(0, 0);
  }
  total = tape.scale(total, 1.0F / static_cast<float>(minibatch.size()));
  sums.loss = tape.value(total).at(0, 0);
  std::vector<nn::Parameter*> params = policy.parameters();
  nn::zero_grads(params);
  tape.backward(total);
  return sums;
}

std::vector<nn::Tensor> gradients(Policy& policy) {
  std::vector<nn::Tensor> out;
  for (const nn::Parameter* p : policy.parameters()) out.push_back(p->grad);
  return out;
}

// Collects `steps` samples per env from `scenario`, with GAE filled in and
// the behaviour log-probs and values perturbed so the ratio and value
// clips engage on some samples.
std::vector<StepSample> collected_samples(Policy& policy,
                                          const core::Scenario& scenario,
                                          int steps, std::uint64_t seed) {
  core::EnvConfig env_cfg;
  env_cfg.memory = 2;
  auto envs = core::make_vec_envs({scenario}, env_cfg, seed, 2);
  std::vector<Env*> env_ptrs;
  for (auto& e : envs) env_ptrs.push_back(e.get());
  VecEnvCollector collector(policy, env_ptrs, seed + 1);
  RolloutBuffer buffer;
  collector.collect(steps, 1.0, buffer);
  buffer.compute_gae(0.99, 0.95, 0.0, true);
  std::vector<StepSample> samples = buffer.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].log_prob += 0.4 * (static_cast<double>(i % 3) - 1.0);
    samples[i].value += (i % 2 == 0) ? 0.5 : -0.5;
  }
  return samples;
}

// Loss to 1e-6 relative.  Gradients: the sharded update sums each
// parameter's gradient over a shard's rows inside one kernel and then
// shard by shard, where the oracle sums sample by sample, so float
// rounding differs; every element must agree to 1e-4 of the largest
// reference gradient magnitude of its parameter (plus 1e-7 absolute).
// The observed worst case is about 3e-6 of that magnitude, while
// dropping or double-counting one of 40 samples moves it by ~2.5e-2.
void expect_matches_reference(const MinibatchLoss& got,
                              const std::vector<nn::Tensor>& got_grads,
                              const MinibatchLoss& ref,
                              const std::vector<nn::Tensor>& ref_grads) {
  EXPECT_NEAR(got.loss, ref.loss, 1e-6 * std::abs(ref.loss));
  ASSERT_EQ(got_grads.size(), ref_grads.size());
  for (std::size_t p = 0; p < ref_grads.size(); ++p) {
    float scale = 0.0F;
    for (float g : ref_grads[p].data()) scale = std::max(scale, std::abs(g));
    const auto a = got_grads[p].data();
    const auto b = ref_grads[p].data();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i], b[i], 1e-4 * scale + 1e-7)
          << "parameter " << p << " element " << i;
    }
  }
}

// The per-row diagnostics are bit-identical to the oracle's (same rows,
// summed in the same order), which also pins row b of the stacked
// forwards to the batch-of-one forward.
void expect_same_diagnostics(const MinibatchLoss& got,
                             const MinibatchLoss& ref) {
  EXPECT_EQ(got.policy_loss, ref.policy_loss);
  EXPECT_EQ(got.value_loss, ref.value_loss);
  EXPECT_EQ(got.entropy, ref.entropy);
  EXPECT_EQ(got.kl, ref.kl);
  EXPECT_EQ(got.clipped, ref.clipped);
}

TEST(ShardedUpdate, MatchesPerSampleReference) {
  util::Rng rng(70);
  const core::Scenario scenario = core::make_scenario(
      topo::by_name("Abilene"), tiny_scenario_params(), rng);
  core::GnnPolicyConfig pcfg;
  pcfg.memory = 2;
  core::GnnPolicy policy(pcfg, rng);
  // 40 samples: shards of 16, 16 and 8.
  const std::vector<StepSample> samples =
      collected_samples(policy, scenario, 20, 71);
  std::vector<const StepSample*> minibatch;
  for (const StepSample& s : samples) minibatch.push_back(&s);
  ASSERT_EQ(minibatch.size(), 40U);
  const PpoConfig config;

  const MinibatchLoss ref = reference_loss(policy, config, minibatch);
  const std::vector<nn::Tensor> ref_grads = gradients(policy);
  MinibatchGradient gradient(policy, config);
  const MinibatchLoss got = gradient.compute(minibatch, nullptr);
  expect_matches_reference(got, gradients(policy), ref, ref_grads);
  expect_same_diagnostics(got, ref);
  EXPECT_GT(ref.clipped, 0.0);
}

TEST(ShardedUpdate, MixedTopologyMinibatchMatchesPerGroupReferences) {
  util::Rng rng(72);
  const core::Scenario ring = core::make_scenario(
      topo::by_name("SmallRing"), tiny_scenario_params(), rng);
  const core::Scenario abilene = core::make_scenario(
      topo::by_name("Abilene"), tiny_scenario_params(), rng);
  core::GnnPolicyConfig pcfg;
  pcfg.memory = 2;
  core::GnnPolicy policy(pcfg, rng);
  const std::vector<StepSample> a = collected_samples(policy, ring, 10, 73);
  const std::vector<StepSample> b = collected_samples(policy, abilene, 10, 74);
  // Interleaved (as a shuffle leaves a Fig. 8 minibatch) and grouped.
  std::vector<const StepSample*> mixed;
  std::vector<const StepSample*> grouped;
  for (std::size_t i = 0; i < a.size(); ++i) {
    mixed.push_back(&a[i]);
    mixed.push_back(&b[i]);
  }
  for (const StepSample& s : a) grouped.push_back(&s);
  for (const StepSample& s : b) grouped.push_back(&s);
  const PpoConfig config;

  MinibatchGradient gradient(policy, config);
  const MinibatchLoss got = gradient.compute(mixed, nullptr);
  const std::vector<nn::Tensor> got_grads = gradients(policy);

  // The partition is by group in first-appearance order, so the grouped
  // minibatch runs the very same shards: bit-identical.
  const MinibatchLoss again = gradient.compute(grouped, nullptr);
  EXPECT_EQ(again.loss, got.loss);
  const std::vector<nn::Tensor> again_grads = gradients(policy);
  for (std::size_t p = 0; p < got_grads.size(); ++p) {
    EXPECT_EQ(0, std::memcmp(got_grads[p].data().data(),
                             again_grads[p].data().data(),
                             got_grads[p].size() * sizeof(float)))
        << "parameter " << p;
  }

  // Each group's rows match its per-sample reference, and the two groups'
  // gradients add up to the mixed one.
  const MinibatchLoss ref = reference_loss(policy, config, grouped);
  expect_matches_reference(got, got_grads, ref, gradients(policy));
  expect_same_diagnostics(got, ref);
  const std::span<const StepSample* const> all(grouped);
  const MinibatchLoss ref_a =
      reference_loss(policy, config, all.first(a.size()));
  const MinibatchLoss ref_b =
      reference_loss(policy, config, all.last(b.size()));
  EXPECT_NEAR(got.policy_loss, ref_a.policy_loss + ref_b.policy_loss, 1e-9);
  EXPECT_NEAR(got.kl, ref_a.kl + ref_b.kl, 1e-9);
  EXPECT_NEAR(got.loss, (ref_a.loss * a.size() + ref_b.loss * b.size()) /
                            static_cast<double>(grouped.size()),
              1e-6 * std::abs(got.loss));
}

TEST(ShardedUpdate, ParametersBitIdenticalAcrossWorkerCounts) {
  util::Rng scenario_rng(75);
  const core::Scenario scenario = core::make_scenario(
      topo::by_name("Abilene"), tiny_scenario_params(), scenario_rng);
  PpoConfig config;
  config.rollout_steps = 96;
  config.minibatch_size = 48;  // three shards per minibatch
  config.epochs = 2;
  std::vector<std::vector<nn::Tensor>> finals;
  for (const int workers : {1, 2, 4}) {
    util::ThreadPool pool(workers);
    core::EnvConfig env_cfg;
    env_cfg.memory = 2;
    auto envs = core::make_vec_envs({scenario}, env_cfg, 76, 2);
    std::vector<Env*> env_ptrs;
    for (auto& e : envs) env_ptrs.push_back(e.get());
    util::Rng rng(77);
    core::GnnPolicyConfig pcfg;
    pcfg.memory = env_cfg.memory;
    core::GnnPolicy policy(pcfg, rng);
    PpoTrainer trainer(policy, env_ptrs, config, 78, &pool);
    trainer.train_iteration();
    trainer.train_iteration();
    std::vector<nn::Tensor> values;
    for (const nn::Parameter* p : policy.parameters()) {
      values.push_back(p->value);
    }
    finals.push_back(std::move(values));
  }
  for (std::size_t w = 1; w < finals.size(); ++w) {
    ASSERT_EQ(finals[w].size(), finals[0].size());
    for (std::size_t p = 0; p < finals[0].size(); ++p) {
      EXPECT_EQ(0, std::memcmp(finals[0][p].data().data(),
                               finals[w][p].data().data(),
                               finals[0][p].size() * sizeof(float)))
          << "run " << w << " parameter " << p;
    }
  }
}

}  // namespace
}  // namespace gddr::rl
