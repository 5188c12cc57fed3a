// Shared experiment configuration for the paper-reproduction benches and
// the examples — one source of truth for the tuned hyperparameters.
//
// Two reproduction-critical findings (documented in DESIGN.md §4) are
// encoded here:
//
//  * Bandit credit assignment.  In data-driven routing the agent's action
//    never influences the demand process, so the return of an action is
//    exactly its immediate reward.  PPO therefore runs with gamma = 0
//    (advantage = r - V(s)), which removes all inter-timestep variance
//    from the gradient; with the conventional gamma = 0.99 the learning
//    signal is drowned and agents plateau at the neutral policy.  The
//    iterative environment is the exception: within one demand-matrix
//    step, earlier micro-actions do shape the final reward, so it uses a
//    gamma high enough to span |E| micro-steps.
//
//  * Heavy-tailed sparse traffic.  With dense near-uniform demand, plain
//    shortest-path routing is already within a few percent of the
//    multicommodity-flow optimum on Topology-Zoo graphs and there is
//    nothing to learn; the paper's "occasional elephant flows" motivation
//    is reproduced with sparse pairs and a strong mouse/elephant split.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "obs/sink.hpp"
#include "rl/ppo.hpp"
#include "util/thread_pool.hpp"

namespace gddr::core {

// Traffic model used by all figure benches: sparse, heavy-tailed bimodal.
ScenarioParams experiment_scenario_params();

// PPO tuned for the one-shot routing environment (bandit credit).
rl::PpoConfig routing_ppo_config();

// PPO tuned for the iterative environment (sparse within-DM rewards).
rl::PpoConfig iterative_ppo_config(int edges_per_step);

// Policy configurations used by the figure benches.
GnnPolicyConfig experiment_gnn_config(int memory);
IterativeGnnPolicyConfig experiment_iterative_gnn_config(int memory);
MlpPolicyConfig experiment_mlp_config();

// Training budget for benches: the paper trains for 500k environment
// steps; benches default to `default_steps` so the whole suite runs in
// minutes.  Override with GDDR_TRAIN_STEPS=<n> or GDDR_BENCH_SCALE=paper
// (which selects 500k).
long bench_train_steps(long default_steps);

// ---- fault-tolerant training runtime ----

struct ExperimentConfig {
  std::vector<Scenario> scenarios;
  EnvConfig env;
  GnnPolicyConfig policy;
  rl::PpoConfig ppo;
  int num_envs = 4;
  // policy_seed drives weight initialisation; train_seed drives the
  // trainer's shuffle RNG, every collector action stream and every env's
  // scenario sampling — together they pin the whole run.
  std::uint64_t policy_seed = 1;
  std::uint64_t train_seed = 2;
  // Checkpointing: every `checkpoint_every_iterations` PPO iterations the
  // complete training state is written atomically to `checkpoint_path`
  // (empty path = no checkpointing).  A crash between writes loses at
  // most that many iterations; a crash *during* a write loses nothing
  // (tmp + fsync + rename keeps the previous checkpoint intact).
  std::string checkpoint_path;
  long checkpoint_every_iterations = 1;
  // Telemetry: a non-empty `metrics_path` enables the obs::Registry and
  // appends one "gddr.metrics.v1" JSONL record there after every
  // `metrics_every_iterations`-th PPO iteration (crash-safe, like the
  // checkpoints).  Records are cumulative snapshots — see DESIGN.md §7.
  std::string metrics_path;
  long metrics_every_iterations = 1;
};

// Owns the full GNN training stack (vectorised RoutingEnvs with a shared
// LP cache, a GnnPolicy, a PpoTrainer) and runs it fault-tolerantly:
// periodic atomic checkpoints during train(), resume_from() to continue a
// killed run.  Because checkpoints capture every RNG stream and counter,
// a resumed run is bit-identical to the uninterrupted one.
class Experiment {
 public:
  // `pool` (optional, must outlive the experiment) runs the trainer's
  // collection and update; the result is bit-identical for any worker
  // count (see rl::PpoTrainer).
  explicit Experiment(ExperimentConfig config,
                      util::ThreadPool* pool = nullptr);

  // Trains until at least `total_steps` *additional* environment steps
  // have been taken, checkpointing per the config.  Returns per-iteration
  // stats.  The train_abort fault site (util::FaultInjector) throws
  // between iterations — after the periodic checkpoint — which is how
  // tests kill a run at a chosen point.
  std::vector<rl::PpoIterationStats> train(long total_steps);

  // Restores the full training state from a checkpoint written by a
  // config-compatible Experiment.  Throws util::IoError (naming the
  // offending field) on corrupt or mismatched files.
  void resume_from(const std::string& checkpoint_path);

  GnnPolicy& policy() { return *policy_; }
  rl::PpoTrainer& trainer() { return *trainer_; }

 private:
  ExperimentConfig config_;
  std::unique_ptr<obs::JsonlSink> metrics_sink_;
  std::vector<std::unique_ptr<RoutingEnv>> envs_;
  std::unique_ptr<GnnPolicy> policy_;
  std::unique_ptr<rl::PpoTrainer> trainer_;
};

}  // namespace gddr::core
