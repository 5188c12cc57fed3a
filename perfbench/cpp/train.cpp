// train_abilene: PPO iterations of a seeded GNN policy on Abilene, as
// `gddr_cli train` configures them (routing_ppo_config, two vectorised
// envs sharing one LP cache), with the collector and update wired to a
// pool of nproc workers.
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/experiment.hpp"
#include "core/routing_env.hpp"
#include "rl/ppo.hpp"
#include "stats.hpp"
#include "topo/zoo.hpp"
#include "traced.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gddr;

constexpr int kNumEnvs = 2;  // as gddr_cli train
constexpr int kSetupRepeats = 31;
constexpr int kMinIterations = 3;
constexpr int kTracedIterations = 2;

core::Scenario make_train_scenario(std::uint64_t seed) {
  util::Rng rng(seed);
  core::ScenarioParams params = core::experiment_scenario_params();
  params.train_sequences = 2;
  params.test_sequences = 1;
  return core::make_scenario(topo::abilene(), params, rng);
}

// The whole training stack, optionally behind the tracing decorators.
// The pool is the caller's: spawning threads is not part of set-up.
struct Rig {
  std::vector<std::unique_ptr<core::RoutingEnv>> envs;
  std::vector<std::unique_ptr<TracedEnv>> traced_envs;
  std::unique_ptr<core::GnnPolicy> policy;
  std::unique_ptr<TracedPolicy> traced_policy;
  std::unique_ptr<rl::PpoTrainer> trainer;

  rl::Policy& trained_policy() {
    return traced_policy ? static_cast<rl::Policy&>(*traced_policy) : *policy;
  }
};

std::unique_ptr<Rig> build_rig(const core::Scenario& scenario,
                               const rl::PpoConfig& ppo, std::uint64_t seed,
                               util::ThreadPool& pool, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->envs = core::make_vec_envs({scenario}, core::EnvConfig{}, seed + 1,
                                  kNumEnvs);
  util::Rng policy_rng(seed);
  rig->policy = std::make_unique<core::GnnPolicy>(
      core::experiment_gnn_config(5), policy_rng);
  std::vector<rl::Env*> env_ptrs;
  for (auto& env : rig->envs) {
    if (traced) {
      rig->traced_envs.push_back(std::make_unique<TracedEnv>(*env));
      env_ptrs.push_back(rig->traced_envs.back().get());
    } else {
      env_ptrs.push_back(env.get());
    }
  }
  if (traced) rig->traced_policy = std::make_unique<TracedPolicy>(*rig->policy);
  rig->trainer = std::make_unique<rl::PpoTrainer>(
      rig->trained_policy(), std::move(env_ptrs), ppo, seed + 1, &pool);
  return rig;
}

bool finite_stats(const rl::PpoIterationStats& s) {
  return std::isfinite(s.policy_loss) && std::isfinite(s.value_loss) &&
         std::isfinite(s.entropy) && std::isfinite(s.approx_kl);
}

int minibatches_per_iteration(const rl::PpoConfig& ppo) {
  const int batches =
      (ppo.rollout_steps + ppo.minibatch_size - 1) / ppo.minibatch_size;
  return batches * ppo.epochs;
}

}  // namespace

TrainTrace trace_training(const core::Scenario& scenario,
                          const rl::PpoConfig& ppo, int iterations,
                          std::uint64_t seed) {
  TrainTrace t;
  util::ThreadPool one_worker(1);
  // Untraced reference pass on the same single worker.
  std::vector<double> plain_times;
  std::vector<std::uint64_t> plain_hashes;
  {
    std::unique_ptr<Rig> rig =
        build_rig(scenario, ppo, seed, one_worker, false);
    for (int i = 0; i < iterations; ++i) {
      const Clock::time_point start = Clock::now();
      rig->trainer->train_iteration();
      plain_times.push_back(seconds_since(start));
      plain_hashes.push_back(parameter_hash(rig->policy->parameters()));
    }
  }

  std::unique_ptr<Rig> rig = build_rig(scenario, ppo, seed, one_worker, true);
  Tracer tracer;
  std::vector<double> traced_times;
  {
    const ActiveTracer active(tracer);
    for (int i = 0; i < iterations; ++i) {
      const Clock::time_point start = Clock::now();
      {
        const Scope unit("bench.iteration");
        tracer.set_ambient_parent(unit.id());
        const Scope iteration("rl.train_iteration");
        tracer.set_ambient_parent(iteration.id());
        rig->trainer->train_iteration();
      }
      traced_times.push_back(seconds_since(start));
      if (parameter_hash(rig->policy->parameters()) !=
          plain_hashes[static_cast<std::size_t>(i)]) {
        t.neutral = false;
      }
    }
    tracer.set_ambient_parent(0);
  }
  t.untraced_iter_s = median(plain_times);
  t.traced_iter_s = median(traced_times);
  t.spans = tracer.spans();
  const auto summary = summarize(t.spans);
  t.coverage = coverage(t.spans);

  auto per_call_us = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : median(it->second.durations_s) * 1e6;
  };
  auto count = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : static_cast<double>(it->second.count);
  };
  LayerMetrics& m = t.metrics;
  m["core.env_step_us"] = {per_call_us("core.env_step"), "us"};
  m["gnn.action_mean_us"] = {per_call_us("gnn.action_mean"), "us"};
  m["gnn.value_us"] = {per_call_us("gnn.value"), "us"};
  m["gnn.forwards_per_iter"] = {
      (count("gnn.action_mean") + count("gnn.action_means") +
       count("gnn.value")) /
          iterations,
      "calls/unit"};
  if (const auto it = summary.find("rl.train_iteration"); it != summary.end()) {
    m["rl.update_self_s"] = {median(it->second.self_durations_s), "s"};
  }
  const mcf::OptimalCache& cache = rig->envs.front()->cache();
  const double lookups = static_cast<double>(cache.hits() + cache.misses());
  m["mcf.cache_hit_ratio"] = {lookups > 0 ? cache.hits() / lookups : 0.0,
                              "ratio"};
  m["mcf.cache_lookups"] = {lookups, "count"};
  return t;
}

Outcome run_train(const Options& options) {
  Outcome out;
  const rl::PpoConfig ppo = core::routing_ppo_config();
  const int workers = options.nproc;
  out.note("workers", static_cast<double>(workers));
  out.note("rollout_steps", static_cast<double>(ppo.rollout_steps));

  if (options.trace) {
    const core::Scenario scenario = make_train_scenario(options.seed);
    TrainTrace t = trace_training(scenario, ppo, kTracedIterations,
                                  options.seed);
    LayerMetrics metrics = t.metrics;
    util::Rng policy_rng(options.seed);
    core::GnnPolicy policy(core::experiment_gnn_config(5), policy_rng);
    merge_missing(metrics,
                  replay_layers(scenario, policy, options.seed,
                                ppo.rollout_steps / kNumEnvs));
    merge_missing(metrics, trace_serving_probe(out, options.seed));
    metrics["trace.coverage"] = {t.coverage, "ratio"};
    metrics["trace.overhead"] = {t.traced_iter_s / t.untraced_iter_s - 1.0,
                                 "ratio"};
    out.check(t.neutral, "traced training parameters differ from untraced");
    out.metrics = metrics;
    out.attempted = kTracedIterations * minibatches_per_iteration(ppo);
    out.note("spans", static_cast<double>(t.spans.size()));
    write_spans(options.out_dir + "/spans-" + options.workload + "-seed" +
                    std::to_string(options.seed) + ".json",
                t.spans);
    return out;
  }

  // Set-up (everything but the pool, which the caller owns) is timed
  // kSetupRepeats times before the measured phase; the last build is the
  // one trained.
  util::ThreadPool pool(workers);
  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = build_rig(make_train_scenario(options.seed), ppo, options.seed, pool,
                    false);
    setup_times.push_back(seconds_since(start));
  }

  std::vector<double> iter_times;
  std::uint64_t first_hash = 0;
  bool finite = true;
  long unhealthy = 0;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(iter_times.size()) < kMinIterations ||
         seconds_since(begin) < options.seconds) {
    const Clock::time_point start = Clock::now();
    const rl::PpoIterationStats stats = rig->trainer->train_iteration();
    iter_times.push_back(seconds_since(start));
    if (iter_times.size() == 1) {
      first_hash = parameter_hash(rig->policy->parameters());
    }
    finite = finite && finite_stats(stats);
    unhealthy += stats.health_rollbacks + stats.nonfinite_events;
  }
  const std::uint64_t final_hash = parameter_hash(rig->policy->parameters());
  const double peak = peak_rss_mb();

  // Determinism contract: one iteration from a fresh build on a single
  // worker must land on the parameters the nproc-worker run reached.
  {
    util::ThreadPool one_worker(1);
    std::unique_ptr<Rig> serial = build_rig(make_train_scenario(options.seed),
                                            ppo, options.seed, one_worker,
                                            false);
    serial->trainer->train_iteration();
    out.check(parameter_hash(serial->policy->parameters()) == first_hash,
              "parameters after one iteration differ between 1 and " +
                  std::to_string(workers) + " workers");
  }
  out.check(finite, "non-finite PPO loss");

  const long iterations = static_cast<long>(iter_times.size());
  out.attempted = iterations * minibatches_per_iteration(ppo);
  out.failed = unhealthy;
  double total_s = 0.0;
  for (const double t : iter_times) total_s += t;
  out.set("setup_s", median(setup_times), "s");
  out.set("peak_rss_mb", peak, "MB");
  out.set("ok_frac",
          1.0 - static_cast<double>(out.failed) / out.attempted, "ratio");
  out.set("throughput",
          static_cast<double>(iterations) * ppo.rollout_steps / total_s, "1/s");
  out.set("p50_ms", median(iter_times) * 1e3, "ms");
  out.set("p90_ms", quantile(iter_times, 0.9) * 1e3, "ms");

  // The hash after the first iteration repeats for a seed across runs;
  // the final one depends on how many iterations the run fitted in.
  auto hex = [](std::uint64_t h) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "\"%016llx\"",
                  static_cast<unsigned long long>(h));
    return std::string(buffer);
  };
  out.note("param_hash_after_first_iteration", hex(first_hash));
  out.note("final_param_hash", hex(final_hash));
  out.note("train_iter_s", median(iter_times));
  out.note("iter_times_s", json_numbers(iter_times));
  out.note("iterations", static_cast<double>(iterations));
  const Tail tail = highest_tail(iter_times);
  out.note("iter_highest_tail",
           Json::object({{"label", Json::quote(tail.label)},
                         {"value_s", Json::number(tail.value)},
                         {"beyond", Json::number(tail.beyond)},
                         {"n", Json::number(tail.n)}}));
  out.note("fail_frac", static_cast<double>(out.failed) / out.attempted);
  return out;
}

}  // namespace perfbench
