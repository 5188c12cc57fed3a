// Fault-tolerance tests: deterministic fault injection, crash-safe
// writes, the simplex→FPTAS fallback chain, the numerical-health
// watchdog, and bit-identical checkpoint/resume (the ISSUE acceptance
// criteria for the fault-tolerant training runtime).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/iterative_env.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "mcf/cache.hpp"
#include "mcf/optimal.hpp"
#include "nn/serialize.hpp"
#include "rl/ppo.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gddr {
namespace {

using util::FaultInjector;
using util::FaultSite;

// Every test disarms on exit so an assertion failure cannot leak an armed
// schedule into the next test.
struct FaultGuard {
  FaultGuard() { FaultInjector::instance().disarm(); }
  ~FaultGuard() { FaultInjector::instance().disarm(); }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is),
          std::istreambuf_iterator<char>()};
}

// ---------------- FaultInjector ----------------

TEST(FaultInjector, NthFiresExactlyOnce) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("lp_solve@3");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(util::inject(FaultSite::kLpSolve));
  const std::vector<bool> expected{false, false, true,  false,
                                   false, false, false, false};
  EXPECT_EQ(fired, expected);
  EXPECT_EQ(injector.hits(FaultSite::kLpSolve), 8);
  EXPECT_EQ(injector.fired(FaultSite::kLpSolve), 1);
}

TEST(FaultInjector, FromNthFiresOnward) {
  FaultGuard guard;
  FaultInjector::instance().arm("nan_grad@2+");
  std::vector<bool> fired;
  for (int i = 0; i < 5; ++i) {
    fired.push_back(util::inject(FaultSite::kNanGradient));
  }
  const std::vector<bool> expected{false, true, true, true, true};
  EXPECT_EQ(fired, expected);
}

TEST(FaultInjector, ProbabilityScheduleIsSeededAndReproducible) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  auto sample = [&] {
    std::vector<bool> fired;
    for (int i = 0; i < 32; ++i) {
      fired.push_back(util::inject(FaultSite::kCheckpointWrite));
    }
    return fired;
  };
  injector.arm("ckpt_write~0.5/42");
  const auto first = sample();
  injector.arm("ckpt_write~0.5/42");  // re-arm resets the stream
  EXPECT_EQ(sample(), first);
  // Not degenerate: some hits fire, some don't.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 32);
}

TEST(FaultInjector, DisarmedPathIsInert) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  EXPECT_FALSE(injector.enabled());
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(util::inject(FaultSite::kLpSolve));
  EXPECT_EQ(injector.hits(FaultSite::kLpSolve), 0);
}

TEST(FaultInjector, MalformedSpecRejectedAtomically) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("lp_solve@1");
  // Malformed specs are an I/O-layer failure (the spec arrives from the
  // GDDR_FAULTS environment), so they surface as util::IoError and the
  // CLI maps them to the I/O exit code.
  EXPECT_THROW(injector.arm("lp_solve@notanumber"), util::IoError);
  EXPECT_THROW(injector.arm("unknown_site@1"), util::IoError);
  // The previous valid schedule survives a failed arm.
  EXPECT_TRUE(injector.enabled());
  EXPECT_TRUE(util::inject(FaultSite::kLpSolve));
}

// Runs arm(spec), requires an IoError and returns its message.
std::string arm_error(const std::string& spec) {
  try {
    FaultInjector::instance().arm(spec);
  } catch (const util::IoError& e) {
    return e.what();
  }
  ADD_FAILURE() << "arm(\"" << spec << "\") did not throw util::IoError";
  return {};
}

TEST(FaultInjector, MalformedSpecErrorsNameTheOffendingToken) {
  FaultGuard guard;

  // Unknown site name.
  std::string msg = arm_error("bogus_site@3");
  EXPECT_NE(msg.find("unknown fault site"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'bogus_site'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bogus_site@3"), std::string::npos) << msg;

  // The unknown-site error enumerates the complete valid-site set, in
  // enum order, so the grammar is discoverable from the message alone.
  // This list is pinned on purpose: adding a FaultSite must extend it.
  EXPECT_NE(
      msg.find("valid sites: lp_solve, ckpt_write, nan_grad, train_abort, "
               "policy_nan, policy_slow, topo_change, request_garbage, "
               "registry_publish, shadow_diverge, candidate_nan"),
      std::string::npos)
      << msg;

  // Non-numeric count after '@'.
  msg = arm_error("lp_solve@abc");
  EXPECT_NE(msg.find("bad count/seed token 'abc'"), std::string::npos) << msg;

  // Missing '@n' / '~p/seed' entirely.
  msg = arm_error("lp_solve");
  EXPECT_NE(msg.find("entry needs '@n', '@n+' or '~p/seed'"),
            std::string::npos)
      << msg;

  // Probabilistic entry without an explicit seed.
  msg = arm_error("lp_solve~0.5");
  EXPECT_NE(msg.find("needs an explicit seed"), std::string::npos) << msg;

  // Probability with trailing garbage (stod would accept the prefix).
  msg = arm_error("lp_solve~0.5abc/7");
  EXPECT_NE(msg.find("bad probability token '0.5abc'"), std::string::npos)
      << msg;

  // Probability outside [0, 1].
  msg = arm_error("lp_solve~1.5/7");
  EXPECT_NE(msg.find("bad probability token '1.5'"), std::string::npos) << msg;

  // Empty clause from a stray comma.
  msg = arm_error("lp_solve@1,,ckpt_write@2");
  EXPECT_NE(msg.find("empty clause"), std::string::npos) << msg;

  // A failed arm never leaves a partial schedule armed.
  EXPECT_FALSE(FaultInjector::instance().enabled());
}

TEST(FaultInjector, ServingSitesParseAndFire) {
  FaultGuard guard;
  auto& injector = FaultInjector::instance();
  injector.arm("policy_nan@1,policy_slow@2,topo_change@1,request_garbage@1+");
  EXPECT_TRUE(util::inject(FaultSite::kPolicyNan));
  EXPECT_FALSE(util::inject(FaultSite::kPolicyNan));
  EXPECT_FALSE(util::inject(FaultSite::kPolicySlow));
  EXPECT_TRUE(util::inject(FaultSite::kPolicySlow));
  EXPECT_TRUE(util::inject(FaultSite::kTopoChange));
  // '@1+' fires from the first occurrence onwards.
  EXPECT_TRUE(util::inject(FaultSite::kRequestGarbage));
  EXPECT_TRUE(util::inject(FaultSite::kRequestGarbage));
}

// ---------------- crash-safe writes ----------------

TEST(AtomicWrite, InjectedFaultKeepsPreviousFileIntact) {
  FaultGuard guard;
  const std::string path = temp_path("gddr_atomic.bin");
  util::write_file_atomic(path, "previous checkpoint");
  FaultInjector::instance().arm("ckpt_write@1");
  EXPECT_THROW(util::write_file_atomic(path, "half-written garbage"),
               util::IoError);
  EXPECT_EQ(read_file(path), "previous checkpoint");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  // Next write (schedule exhausted) succeeds and replaces the content.
  util::write_file_atomic(path, "new checkpoint");
  EXPECT_EQ(read_file(path), "new checkpoint");
  std::remove(path.c_str());
}

// ---------------- solver fallback chain ----------------

traffic::DemandMatrix small_demand(const graph::DiGraph& g,
                                   std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::BimodalParams params;
  params.pair_density = 0.4;
  return traffic::bimodal_matrix(g.num_nodes(), params, rng);
}

TEST(SolverFallback, ApproximateResultWithinFptasBound) {
  FaultGuard guard;
  const auto g = topo::by_name("SmallRing");
  const auto dm = small_demand(g, 7);

  const mcf::OptimalResult exact = mcf::solve_optimal(g, dm);
  ASSERT_EQ(exact.provenance, mcf::SolveProvenance::kExact);
  ASSERT_GT(exact.u_max, 0.0);

  FaultInjector::instance().arm("lp_solve@1");
  mcf::SolveOptions options;  // default epsilon 0.05
  const mcf::OptimalResult approx = mcf::solve_optimal(g, dm, options);
  EXPECT_EQ(approx.provenance, mcf::SolveProvenance::kApproximate);
  EXPECT_TRUE(approx.feasible);
  for (const auto& row : approx.flow_by_dest) EXPECT_TRUE(row.empty());

  // FPTAS guarantee: u* <= u_approx <= u* / (1 - 3*eps); small slack for
  // floating-point noise.
  const double ratio = approx.u_max / exact.u_max;
  EXPECT_GE(ratio, 0.999);
  EXPECT_LE(ratio, 1.0 / (1.0 - 3.0 * options.fptas_epsilon) + 0.05);
}

TEST(SolverFallback, ExactOnlyModeReportsFailure) {
  FaultGuard guard;
  const auto g = topo::by_name("SmallRing");
  const auto dm = small_demand(g, 7);
  FaultInjector::instance().arm("lp_solve@1");
  mcf::SolveOptions options;
  options.allow_fptas_fallback = false;
  const mcf::OptimalResult result = mcf::solve_optimal(g, dm, options);
  EXPECT_EQ(result.provenance, mcf::SolveProvenance::kFailed);
  EXPECT_FALSE(result.feasible);
}

TEST(SolverFallback, CacheCompletesUnderInjectionAndCountsProvenance) {
  FaultGuard guard;
  const auto g = topo::by_name("SmallRing");
  mcf::OptimalCache cache;

  FaultInjector::instance().arm("lp_solve@1");
  const double u_approx = cache.u_max(g, small_demand(g, 7));
  EXPECT_GT(u_approx, 0.0);
  EXPECT_EQ(cache.approx_solves(), 1U);
  EXPECT_EQ(cache.exact_solves(), 0U);

  FaultInjector::instance().disarm();
  const double u_exact = cache.u_max(g, small_demand(g, 8));
  EXPECT_GT(u_exact, 0.0);
  EXPECT_EQ(cache.exact_solves(), 1U);
  // The approximate value was cached; re-querying it is a hit, not a solve.
  cache.u_max(g, small_demand(g, 7));
  EXPECT_EQ(cache.approx_solves(), 1U);
}

// ---------------- watchdog ----------------

// Minimal deterministic env with full checkpoint support (the Env
// contract needed for trainer round-trip tests).
class StatefulTargetEnv final : public rl::Env {
 public:
  explicit StatefulTargetEnv(double target, int episode_len = 8)
      : target_(target), episode_len_(episode_len) {}

  rl::Observation reset() override {
    t_ = 0;
    return make_obs();
  }

  StepResult step(std::span<const double> action) override {
    StepResult r;
    const double err = action[0] - target_;
    r.reward = -err * err;
    r.done = ++t_ >= episode_len_;
    r.obs = make_obs();  // also the bootstrap observation at truncation
    r.truncated = r.done;
    return r;
  }

  int action_dim() const override { return 1; }

  std::vector<std::uint8_t> save_state() const override {
    return {static_cast<std::uint8_t>(t_)};
  }
  void restore_state(std::span<const std::uint8_t> blob) override {
    if (blob.size() != 1) {
      throw util::IoError("StatefulTargetEnv: bad state blob");
    }
    t_ = blob[0];
  }

 private:
  rl::Observation make_obs() const {
    rl::Observation obs;
    obs.flat = {static_cast<double>(t_) / episode_len_};
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

rl::PpoConfig tiny_ppo_config() {
  rl::PpoConfig cfg;
  cfg.rollout_steps = 32;
  cfg.minibatch_size = 16;
  cfg.epochs = 2;
  cfg.learning_rate = 3e-3;
  return cfg;
}

core::MlpPolicyConfig tiny_mlp_config() {
  core::MlpPolicyConfig cfg;
  cfg.pi_hidden = {8};
  cfg.vf_hidden = {8};
  return cfg;
}

TEST(Watchdog, RollsBackOnInjectedNanGradient) {
  FaultGuard guard;
  util::Rng rng(11);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env(0.5);
  const rl::PpoConfig cfg = tiny_ppo_config();
  rl::PpoTrainer trainer(policy, env, cfg, 3);

  FaultInjector::instance().arm("nan_grad@1");
  const rl::PpoIterationStats stats = trainer.train_iteration();
  EXPECT_GE(stats.nonfinite_events, 1);
  EXPECT_GE(stats.health_rollbacks, 1);
  EXPECT_LT(stats.learning_rate, cfg.learning_rate);

  // The poisoned step was rolled back: every weight is still finite and
  // training continues cleanly.
  for (const nn::Parameter* p : policy.parameters()) {
    for (const float v : p->value.data()) ASSERT_TRUE(std::isfinite(v));
  }
  FaultInjector::instance().disarm();
  const rl::PpoIterationStats clean = trainer.train_iteration();
  EXPECT_EQ(clean.nonfinite_events, 0);
  EXPECT_EQ(clean.health_rollbacks, 0);
}

TEST(Watchdog, CleanRunReportsNoEvents) {
  FaultGuard guard;
  util::Rng rng(12);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env(0.5);
  const rl::PpoConfig cfg = tiny_ppo_config();
  rl::PpoTrainer trainer(policy, env, cfg, 3);
  const rl::PpoIterationStats stats = trainer.train_iteration();
  EXPECT_EQ(stats.nonfinite_events, 0);
  EXPECT_EQ(stats.health_rollbacks, 0);
  EXPECT_EQ(stats.learning_rate, cfg.learning_rate);
}

// ---------------- trainer checkpoint round-trip ----------------

void expect_params_bitwise_equal(const std::vector<nn::Parameter*>& a,
                                 const std::vector<nn::Parameter*>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto da = a[i]->value.data();
    const auto db = b[i]->value.data();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t k = 0; k < da.size(); ++k) {
      ASSERT_EQ(da[k], db[k]) << "parameter " << i << " element " << k;
    }
  }
}

void expect_stats_identical(const rl::PpoIterationStats& a,
                            const rl::PpoIterationStats& b) {
  EXPECT_EQ(a.steps, b.steps);
  EXPECT_EQ(a.episodes, b.episodes);
  EXPECT_EQ(a.mean_episode_reward, b.mean_episode_reward);
  EXPECT_EQ(a.policy_loss, b.policy_loss);
  EXPECT_EQ(a.value_loss, b.value_loss);
  EXPECT_EQ(a.entropy, b.entropy);
  EXPECT_EQ(a.approx_kl, b.approx_kl);
  EXPECT_EQ(a.clip_fraction, b.clip_fraction);
  EXPECT_EQ(a.nonfinite_events, b.nonfinite_events);
  EXPECT_EQ(a.health_rollbacks, b.health_rollbacks);
  EXPECT_EQ(a.learning_rate, b.learning_rate);
}

TEST(Checkpoint, TrainerResumeIsBitIdentical) {
  const std::string path = temp_path("gddr_trainer_resume.ckpt");
  const rl::PpoConfig cfg = tiny_ppo_config();

  // Reference: 4 uninterrupted iterations.
  util::Rng rng_a(31);
  core::MlpPolicy policy_a(1, 1, tiny_mlp_config(), rng_a);
  StatefulTargetEnv env_a0(0.5);
  StatefulTargetEnv env_a1(0.5);
  rl::PpoTrainer trainer_a(policy_a, {&env_a0, &env_a1}, cfg, 3);
  std::vector<rl::PpoIterationStats> full;
  for (int i = 0; i < 2; ++i) full.push_back(trainer_a.train_iteration());
  trainer_a.save_checkpoint(path);
  for (int i = 0; i < 2; ++i) full.push_back(trainer_a.train_iteration());

  // Resumed: fresh stack (different init seed — the checkpoint must
  // overwrite everything), load, 2 more iterations.
  util::Rng rng_b(99);
  core::MlpPolicy policy_b(1, 1, tiny_mlp_config(), rng_b);
  StatefulTargetEnv env_b0(0.5);
  StatefulTargetEnv env_b1(0.5);
  rl::PpoTrainer trainer_b(policy_b, {&env_b0, &env_b1}, cfg, 77);
  trainer_b.load_checkpoint(path);
  EXPECT_EQ(trainer_b.iterations(), 2);
  EXPECT_EQ(trainer_b.total_env_steps(), trainer_a.total_env_steps() - 64);
  std::vector<rl::PpoIterationStats> tail;
  for (int i = 0; i < 2; ++i) tail.push_back(trainer_b.train_iteration());

  expect_params_bitwise_equal(policy_a.parameters(), policy_b.parameters());
  ASSERT_EQ(tail.size(), 2U);
  expect_stats_identical(tail[0], full[2]);
  expect_stats_identical(tail[1], full[3]);
  std::remove(path.c_str());
}

TEST(Checkpoint, CorruptedCheckpointNamesFieldAndLeavesTrainerUsable) {
  const std::string path = temp_path("gddr_trainer_corrupt.ckpt");
  const rl::PpoConfig cfg = tiny_ppo_config();
  util::Rng rng(32);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env(0.5);
  rl::PpoTrainer trainer(policy, env, cfg, 3);
  trainer.train_iteration();
  trainer.save_checkpoint(path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  try {
    trainer.load_checkpoint(path);
    FAIL() << "expected util::IoError for a truncated checkpoint";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("truncated"), std::string::npos)
        << ex.what();
  }
  // No half-load: the trainer keeps training normally.
  const rl::PpoIterationStats stats = trainer.train_iteration();
  EXPECT_EQ(stats.steps, cfg.rollout_steps);
  std::remove(path.c_str());
}

TEST(Checkpoint, EnvCountMismatchRejected) {
  const std::string path = temp_path("gddr_trainer_envcount.ckpt");
  const rl::PpoConfig cfg = tiny_ppo_config();
  util::Rng rng(33);
  core::MlpPolicy policy(1, 1, tiny_mlp_config(), rng);
  StatefulTargetEnv env0(0.5);
  StatefulTargetEnv env1(0.5);
  rl::PpoTrainer two_envs(policy, {&env0, &env1}, cfg, 3);
  two_envs.train_iteration();
  two_envs.save_checkpoint(path);

  util::Rng rng_b(34);
  core::MlpPolicy policy_b(1, 1, tiny_mlp_config(), rng_b);
  StatefulTargetEnv env_b(0.5);
  rl::PpoTrainer one_env(policy_b, env_b, cfg, 3);
  try {
    one_env.load_checkpoint(path);
    FAIL() << "expected util::IoError for an env count mismatch";
  } catch (const util::IoError& ex) {
    EXPECT_NE(std::string(ex.what()).find("count"), std::string::npos)
        << ex.what();
  }
  std::remove(path.c_str());
}

// ---------------- routing env state round-trip ----------------

core::ScenarioParams tiny_scenario_params() {
  core::ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 2;
  p.test_sequences = 1;
  return p;
}

TEST(EnvState, RoutingEnvRoundTripContinuesBitIdentically) {
  util::Rng srng(41);
  const std::vector<core::Scenario> scenarios{
      core::make_scenario(topo::by_name("SmallRing"), tiny_scenario_params(),
                          srng)};
  core::EnvConfig cfg;
  cfg.memory = 3;

  core::RoutingEnv a(scenarios, cfg, 5);
  a.reset();
  const std::vector<double> action(
      static_cast<std::size_t>(a.action_dim()), 0.25);
  a.step(action);

  core::RoutingEnv b(scenarios, cfg, 999);  // different seed/state
  b.restore_state(a.save_state());

  // Identical continuation: same rewards and observations step by step,
  // across episode boundaries (reset uses the restored RNG stream).
  for (int i = 0; i < 20; ++i) {
    const auto ra = a.step(action);
    const auto rb = b.step(action);
    ASSERT_EQ(ra.reward, rb.reward) << "step " << i;
    ASSERT_EQ(ra.done, rb.done) << "step " << i;
    ASSERT_EQ(ra.obs.flat, rb.obs.flat) << "step " << i;
    if (ra.done) {
      ASSERT_EQ(a.reset().flat, b.reset().flat) << "step " << i;
    }
  }
}

TEST(EnvState, CorruptBlobRejectedWithoutStateChange) {
  util::Rng srng(42);
  const std::vector<core::Scenario> scenarios{
      core::make_scenario(topo::by_name("SmallRing"), tiny_scenario_params(),
                          srng)};
  core::EnvConfig cfg;
  cfg.memory = 3;
  core::RoutingEnv env(scenarios, cfg, 5);
  env.reset();
  const auto good = env.save_state();

  auto truncated = good;
  truncated.resize(truncated.size() / 2);
  EXPECT_THROW(env.restore_state(truncated), util::IoError);

  auto oob = good;
  // Scenario index field sits right after the version (u32) + RNG state
  // (4*u64 + f64 + u8) + mode byte; stomp it with an enormous value.
  const std::size_t scenario_off = 4 + 8 * 4 + 8 + 1 + 1;
  for (std::size_t i = 0; i < 8; ++i) oob[scenario_off + i] = 0xFF;
  EXPECT_THROW(env.restore_state(oob), util::IoError);

  // The test cursor (after the scenario and sequence indices) must name
  // an existing test unit.
  auto bad_cursor = good;
  bad_cursor[scenario_off + 16] = 0x01;
  EXPECT_THROW(env.restore_state(bad_cursor), util::IoError);

  // The failed restores left the env where it was.
  EXPECT_EQ(env.save_state(), good);
}

TEST(EnvState, IterativeEnvRoundTripMidMicroStep) {
  util::Rng srng(43);
  const std::vector<core::Scenario> scenarios{
      core::make_scenario(topo::by_name("SmallRing"), tiny_scenario_params(),
                          srng)};
  core::IterativeEnvConfig cfg;
  cfg.memory = 3;

  core::IterativeRoutingEnv a(scenarios, cfg, 5);
  a.reset();
  const std::vector<double> action{0.3, -0.2};
  a.step(action);  // mid-DM: edge cursor advanced, weights pending
  a.step(action);

  core::IterativeRoutingEnv b(scenarios, cfg, 999);
  b.restore_state(a.save_state());
  for (int i = 0; i < 30; ++i) {
    const auto ra = a.step(action);
    const auto rb = b.step(action);
    ASSERT_EQ(ra.reward, rb.reward) << "micro-step " << i;
    ASSERT_EQ(ra.done, rb.done) << "micro-step " << i;
    if (ra.done) {
      ASSERT_EQ(a.reset().flat, b.reset().flat) << "micro-step " << i;
    }
  }
}

// The env-state blob layout (DESIGN §6): u32 version, the sampling RNG,
// then the shared episode-cursor fields (u8 mode, u64 scenario index,
// u64 sequence index, u64 test cursor), then each env's own fields.  The
// expected bytes are written field by field; the RNG is replayed with the
// train-mode draw order (scenario, then one of its train sequences).
std::vector<std::uint8_t> blob_bytes(const std::ostringstream& os) {
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

void write_rng_words(std::ostream& os, const util::Rng& rng) {
  const util::Rng::State state = rng.state();
  for (const std::uint64_t word : state.s) nn::write_pod(os, word);
  nn::write_pod(os, state.cached_normal);
  nn::write_pod(os, static_cast<std::uint8_t>(state.has_cached_normal));
}

void write_cursor(std::ostream& os, const util::Rng& rng, bool test_mode,
                  std::uint64_t scenario, std::uint64_t sequence,
                  std::uint64_t test_cursor) {
  nn::write_pod(os, std::uint32_t{1});  // env state version
  write_rng_words(os, rng);
  nn::write_pod(os, static_cast<std::uint8_t>(test_mode ? 1 : 0));
  nn::write_pod(os, scenario);
  nn::write_pod(os, sequence);
  nn::write_pod(os, test_cursor);
}

// The RNG after one train-mode draw, and what it drew.
struct TrainDraw {
  util::Rng rng;
  std::uint64_t scenario = 0;
  std::uint64_t sequence = 0;
};

TrainDraw train_draw(std::uint64_t seed,
                     const std::vector<core::Scenario>& scenarios) {
  TrainDraw d{util::Rng(seed)};
  d.scenario = d.rng.uniform_index(scenarios.size());
  d.sequence =
      d.rng.uniform_index(scenarios[d.scenario].train_sequences.size());
  return d;
}

std::vector<core::Scenario> two_layout_scenarios() {
  util::Rng srng(44);
  core::ScenarioParams p = tiny_scenario_params();
  p.train_sequences = 3;
  p.test_sequences = 2;
  return {core::make_scenario(topo::by_name("SmallRing"), p, srng),
          core::make_scenario(topo::by_name("JanetLike"), p, srng)};
}

TEST(EnvState, BlobLayoutFollowsDocumentedFieldOrder) {
  const auto scenarios = two_layout_scenarios();
  constexpr std::uint64_t kSeed = 17;

  // RoutingEnv, train mode: one reset, two steps.
  core::EnvConfig cfg;
  cfg.memory = 3;
  core::RoutingEnv env(scenarios, cfg, kSeed);
  env.reset();
  const std::vector<double> action(
      static_cast<std::size_t>(env.action_dim()), 0.25);
  env.step(action);
  env.step(action);
  const TrainDraw draw = train_draw(kSeed, scenarios);
  ASSERT_EQ(env.current_graph().num_nodes(),
            scenarios[draw.scenario].graph.num_nodes());
  {
    std::ostringstream os;
    write_cursor(os, draw.rng, false, draw.scenario, draw.sequence, 0);
    nn::write_pod(os, std::int32_t{cfg.memory + 2});  // t
    nn::write_pod(os, std::int32_t{2});               // episode steps
    nn::write_pod(os, env.last_ratio());
    EXPECT_EQ(env.save_state(), blob_bytes(os));
  }

  // RoutingEnv, test mode: two resets sweep (scenario 0, test seq 0) then
  // (scenario 0, test seq 1); the RNG is not drawn.
  env.set_mode(core::RoutingEnv::Mode::kTest);
  env.reset();
  env.reset();
  {
    std::ostringstream os;
    write_cursor(os, draw.rng, true, 0, 1, 2);
    nn::write_pod(os, std::int32_t{cfg.memory});
    nn::write_pod(os, std::int32_t{0});
    nn::write_pod(os, env.last_ratio());
    EXPECT_EQ(env.save_state(), blob_bytes(os));
  }

  // IterativeRoutingEnv, train mode: one reset, one full demand-matrix
  // step (|E| micro-steps), then two micro-steps of the next one.
  core::IterativeEnvConfig icfg;
  icfg.memory = 3;
  core::IterativeRoutingEnv ienv(scenarios, icfg, kSeed);
  ienv.reset();
  const int edges = ienv.edges_per_step();
  const std::vector<double> micro{0.3, -0.2};
  for (int e = 0; e < edges; ++e) ienv.step(micro);
  const double ratio = ienv.last_ratio();
  ienv.reset();
  ienv.step(micro);
  ienv.step(micro);
  {
    std::ostringstream os;
    write_cursor(os, draw.rng, false, draw.scenario, draw.sequence, 0);
    nn::write_pod(os, std::uint8_t{1});               // in_sequence
    nn::write_pod(os, std::int32_t{icfg.memory + 1});  // t
    nn::write_pod(os, std::int32_t{2});               // edge cursor
    nn::write_pod(os, static_cast<std::uint64_t>(edges));
    for (int e = 0; e < edges; ++e) nn::write_pod(os, e < 2 ? 0.3 : 0.0);
    nn::write_pod(os, ratio);
    EXPECT_EQ(ienv.save_state(), blob_bytes(os));
  }
}

// ---------------- kill-and-resume acceptance test ----------------

core::ExperimentConfig experiment_config(const std::string& ckpt_path) {
  util::Rng srng(51);
  core::ExperimentConfig cfg;
  cfg.scenarios = {core::make_scenario(topo::by_name("SmallRing"),
                                       tiny_scenario_params(), srng)};
  cfg.env.memory = 3;
  cfg.ppo = tiny_ppo_config();
  cfg.policy.memory = 3;
  cfg.policy.latent = 8;
  cfg.policy.steps = 2;
  cfg.policy.mlp_hidden = {16};
  cfg.num_envs = 2;
  cfg.policy_seed = 61;
  cfg.train_seed = 62;
  cfg.checkpoint_path = ckpt_path;
  cfg.checkpoint_every_iterations = 1;
  return cfg;
}

TEST(Experiment, KilledRunResumesBitIdentically) {
  FaultGuard guard;
  const std::string path = temp_path("gddr_experiment.ckpt");
  // One iteration = rollout_steps env steps; 4 iterations total.
  const long total = 4L * tiny_ppo_config().rollout_steps;

  // Reference: uninterrupted run.
  core::Experiment reference(experiment_config(path + ".ref"));
  const auto full = reference.train(total);
  ASSERT_EQ(full.size(), 4U);

  // Victim: killed by the injector at the start of iteration 3 (two
  // iterations and two checkpoints have landed by then).
  core::Experiment victim(experiment_config(path));
  FaultInjector::instance().arm("train_abort@3");
  EXPECT_THROW(victim.train(total), std::runtime_error);
  FaultInjector::instance().disarm();

  // Recovery: a fresh process image resumes from the last checkpoint and
  // finishes the remaining iterations.
  core::Experiment recovered(experiment_config(path));
  recovered.resume_from(path);
  EXPECT_EQ(recovered.trainer().iterations(), 2);
  const auto tail =
      recovered.train(total - recovered.trainer().total_env_steps());
  ASSERT_EQ(tail.size(), 2U);

  expect_params_bitwise_equal(reference.policy().parameters(),
                              recovered.policy().parameters());
  expect_stats_identical(tail[0], full[2]);
  expect_stats_identical(tail[1], full[3]);

  std::remove(path.c_str());
  std::remove((path + ".ref").c_str());
}

TEST(Experiment, PooledTrainingMatchesSerialBitForBit) {
  // The pool reaches the trainer's collection and update; neither may
  // change a bit of the result.
  const long total = 2L * tiny_ppo_config().rollout_steps;
  core::Experiment serial(experiment_config(""));
  const auto serial_stats = serial.train(total);

  util::ThreadPool pool(2);
  core::Experiment pooled(experiment_config(""), &pool);
  const auto pooled_stats = pooled.train(total);
  // Bit-identity holds with or without the pool, so only the pool's own
  // task count shows the trainer ran on it.
  EXPECT_GT(pool.tasks_submitted(), 0U);

  expect_params_bitwise_equal(serial.policy().parameters(),
                              pooled.policy().parameters());
  ASSERT_EQ(serial_stats.size(), pooled_stats.size());
  for (std::size_t i = 0; i < serial_stats.size(); ++i) {
    expect_stats_identical(serial_stats[i], pooled_stats[i]);
  }
}

}  // namespace
}  // namespace gddr
