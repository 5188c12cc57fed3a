// Proximal Policy Optimisation (Schulman et al. 2017), the algorithm the
// paper trains all its agents with (§VIII-C, stable-baselines PPO2).
//
// Implemented features match PPO2: clipped surrogate objective, clipped
// value loss, entropy bonus, GAE(lambda) advantages, advantage
// normalisation, minibatched multi-epoch updates, Adam, and global
// gradient-norm clipping.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/tape.hpp"
#include "rl/env.hpp"
#include "rl/health.hpp"
#include "rl/policy.hpp"
#include "rl/rollout.hpp"
#include "rl/vec_env.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gddr::rl {

struct PpoConfig {
  int rollout_steps = 256;   // environment steps per update (across envs)
  int epochs = 4;            // optimisation passes over each rollout
  int minibatch_size = 64;
  double gamma = 0.99;       // discount
  double gae_lambda = 0.95;
  double clip_epsilon = 0.2;
  double value_coef = 0.5;
  double entropy_coef = 0.001;
  double learning_rate = 3e-4;
  double max_grad_norm = 0.5;
  bool normalize_advantages = true;
  // Rewards are multiplied by this before storage (keeps value targets in
  // a friendly range for long episodes).
  double reward_scale = 1.0;
  // Numerical-health watchdog (see rl/health.hpp): NaN/Inf losses,
  // gradients or parameters trigger a rollback to the last-good snapshot
  // plus a learning-rate shrink instead of corrupting the run.
  HealthConfig health;
};

struct PpoIterationStats {
  int steps = 0;                   // environment steps this iteration
  double mean_episode_reward = 0;  // unscaled, over episodes completed
  int episodes = 0;
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double approx_kl = 0.0;
  double clip_fraction = 0.0;
  // Watchdog activity this iteration (0 on a healthy iteration).
  int nonfinite_events = 0;   // NaN/Inf detections in loss/grads/params
  int health_rollbacks = 0;   // rollbacks to the last-good snapshot
  double learning_rate = 0.0;  // lr in effect after the iteration
};

// Per-minibatch sums from MinibatchGradient::compute.  `loss` is the
// minibatch's mean PPO loss (the quantity the gradient is of); the rest
// are sums over its samples, added one sample at a time in shard order.
struct MinibatchLoss {
  double loss = 0.0;
  double policy_loss = 0.0;  // clipped-surrogate loss
  double value_loss = 0.0;   // clipped value loss (before value_coef)
  double entropy = 0.0;
  double kl = 0.0;           // log pi_old - log pi
  double clipped = 0.0;      // samples whose ratio left [1 - eps, 1 + eps]
};

// Samples per update shard (see MinibatchGradient).
inline constexpr std::size_t kUpdateShardSize = 16;

// The loss and parameter gradient of one PPO minibatch, computed data
// parallel.  This is the whole of the update's forward and backward work.
//
// Shard contract (DESIGN §5):
//  * Partition.  Samples are grouped by connectivity (rl::stackable) in
//    order of first appearance, and each group is cut in order into
//    shards of at most kUpdateShardSize samples.  The split is a function
//    of the minibatch alone, never of the worker count.
//  * Shard work.  Each shard runs on its own tape (created on first use,
//    reused after): one stacked action_mean, one stacked value, the PPO
//    loss as whole-shard tape ops (Gaussian log-prob rows, clipped ratio,
//    clipped value, entropy) scaled by 1 / |minibatch|, and a
//    Tape::backward_local() that leaves the gradient on the shard's tape.
//    Shards run on `pool` and touch nothing shared but the parameter
//    values they read.
//  * Fold.  After the barrier the calling thread zeroes every
//    Parameter::grad and folds the shards' gradients into it in shard
//    order, so the result is bit-identical for any worker count.
class MinibatchGradient {
 public:
  // `policy` must outlive this object.
  MinibatchGradient(Policy& policy, const PpoConfig& config);
  ~MinibatchGradient();
  MinibatchGradient(const MinibatchGradient&) = delete;
  MinibatchGradient& operator=(const MinibatchGradient&) = delete;

  // Leaves d(loss)/d(theta) in Parameter::grad of every policy parameter
  // and returns the loss with its diagnostic sums.  `pool` may be null.
  MinibatchLoss compute(std::span<const StepSample* const> minibatch,
                        util::ThreadPool* pool);

 private:
  struct Shard;
  void run_shard(Shard& shard, float inv_batch);
  void add_diagnostics(const Shard& shard, MinibatchLoss& total) const;

  Policy& policy_;
  PpoConfig config_;
  std::vector<nn::Parameter*> params_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

class PpoTrainer {
 public:
  // `policy` and `env` must outlive the trainer.
  PpoTrainer(Policy& policy, Env& env, const PpoConfig& config,
             std::uint64_t seed);

  // Vectorised collection: the rollout of each iteration is gathered from
  // every env (ceil(rollout_steps / envs.size()) steps each) via a
  // VecEnvCollector — concurrently when `pool` is non-null, and always
  // merged env-major so the update sees bit-identical data for any worker
  // count.  The update runs each minibatch's shards on the same pool (see
  // MinibatchGradient) and steps the optimiser once per minibatch, so it
  // is bit-identical for any worker count too.  `policy`, the envs and
  // `pool` must outlive the trainer.
  PpoTrainer(Policy& policy, std::vector<Env*> envs, const PpoConfig& config,
             std::uint64_t seed, util::ThreadPool* pool = nullptr);

  // Collects one rollout and performs the PPO update.
  PpoIterationStats train_iteration();

  // Runs iterations until at least `total_steps` environment steps have
  // been taken; invokes `callback` (if set) after each iteration.
  using Callback = std::function<void(const PpoIterationStats&)>;
  void train(long total_steps, const Callback& callback = {});

  long total_env_steps() const { return total_env_steps_; }
  long iterations() const { return iterations_; }

  // Deterministic greedy action (the distribution mean) for evaluation.
  std::vector<double> act_deterministic(const Observation& obs);

  // Fault-tolerant checkpointing (implemented in rl/checkpoint.cpp).
  //
  // save_checkpoint serialises the complete training state — policy
  // parameters, Adam moments + step count, the trainer's shuffle RNG and
  // counters, the current learning rate, every collector slot (action
  // RNG, pending observation, episode accumulator) and every env's
  // opaque state — into one GDDRPARM v2 container, written atomically.
  //
  // load_checkpoint restores all of it into a trainer constructed with
  // the same policy architecture, env count and config; training resumed
  // from the checkpoint is bit-identical to the uninterrupted run.  It
  // validates every field and throws util::IoError naming the offending
  // section/field; on throw the trainer is unchanged (staged commit).
  void save_checkpoint(const std::string& path) const;
  void load_checkpoint(const std::string& path);

 private:
  PpoIterationStats update(RolloutBuffer& buffer);

  Policy& policy_;
  PpoConfig config_;
  util::Rng rng_;  // minibatch shuffling
  nn::Adam optimizer_;
  std::vector<nn::Parameter*> params_;
  MinibatchGradient gradient_;
  util::ThreadPool* pool_ = nullptr;
  VecEnvCollector collector_;
  int steps_per_env_;
  HealthMonitor health_;

  long total_env_steps_ = 0;
  long iterations_ = 0;
};

}  // namespace gddr::rl
