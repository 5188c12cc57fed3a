// Layer replays: isolated, timed calls into each layer's public entry
// points on one scenario's topology and demand, for the traced run.
#include <algorithm>
#include <memory>

#include "core/experiment.hpp"
#include "core/routing_env.hpp"
#include "mcf/optimal.hpp"
#include "nn/gaussian.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "rl/forward.hpp"
#include "rl/vec_env.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "serve/sanitize.hpp"
#include "serve/topo_cache.hpp"
#include "stats.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gddr;

constexpr int kMemory = 5;
constexpr int kMinSolves = 3;
constexpr int kMaxSolves = 20;
constexpr double kSolveBudgetS = 1.5;
constexpr int kMaxDecisions = 48;
constexpr int kTopoMissRepeats = 5;
constexpr int kBackwardRepeats = 3;
constexpr int kAdamRepeats = 10;
constexpr int kBatchRows = 8;

template <typename Fn>
double time_us(Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  return seconds_since(start) * 1e6;
}

// Every distinct matrix of the scenario, test sequences first.
std::vector<const traffic::DemandMatrix*> distinct_demands(
    const core::Scenario& scenario) {
  std::vector<const traffic::DemandMatrix*> out;
  std::vector<std::uint64_t> seen;
  auto add = [&](const std::vector<traffic::DemandSequence>& seqs) {
    for (const auto& seq : seqs) {
      for (const auto& dm : seq) {
        const std::uint64_t fp = mcf::demand_fingerprint(dm);
        if (std::find(seen.begin(), seen.end(), fp) != seen.end()) continue;
        seen.push_back(fp);
        out.push_back(&dm);
      }
    }
  };
  add(scenario.test_sequences);
  add(scenario.train_sequences);
  return out;
}

// Cold exact solves; pivots from the program's own lp/* counters.
void replay_mcf(const core::Scenario& scenario, LayerMetrics& m) {
  obs::Registry& registry = obs::Registry::instance();
  const bool was_enabled = registry.enabled();
  registry.enable();
  const std::uint64_t pivots0 = registry.counter("lp/pivots");
  const std::uint64_t solves0 = registry.counter("lp/solves");
  std::vector<double> times_ms;
  long exact = 0;
  const Clock::time_point start = Clock::now();
  for (const traffic::DemandMatrix* dm : distinct_demands(scenario)) {
    if (static_cast<int>(times_ms.size()) >= kMaxSolves) break;
    if (static_cast<int>(times_ms.size()) >= kMinSolves &&
        seconds_since(start) > kSolveBudgetS) {
      break;
    }
    mcf::OptimalResult r;
    times_ms.push_back(
        time_us([&] { r = mcf::solve_optimal(scenario.graph, *dm); }) * 1e-3);
    if (r.provenance == mcf::SolveProvenance::kExact) ++exact;
  }
  const double pivots =
      static_cast<double>(registry.counter("lp/pivots") - pivots0);
  const double solves =
      static_cast<double>(registry.counter("lp/solves") - solves0);
  if (!was_enabled) registry.disable();
  m["mcf.solve_ms.p50"] = {quantile(times_ms, 0.5), "ms"};
  m["mcf.solve_ms.p90"] = {quantile(times_ms, 0.9), "ms"};
  m["lp.pivots_per_solve"] = {solves > 0 ? pivots / solves : 0.0,
                              "pivots/solve"};
  m["mcf.exact_frac"] = {
      times_ms.empty() ? 0.0 : static_cast<double>(exact) / times_ms.size(),
      "ratio"};
}

// The serving decision stages, each timed around its public call.
void replay_decision(const core::Scenario& scenario, rl::Policy& policy,
                     LayerMetrics& m) {
  const graph::DiGraph& g = scenario.graph;
  const routing::SoftminOptions softmin;
  std::vector<double> miss_us;
  for (int k = 0; k < kTopoMissRepeats; ++k) {
    serve::TopologyCache fresh(8, softmin, scenario.node_feature_scale,
                               scenario.flat_feature_scale);
    miss_us.push_back(time_us([&] { fresh.acquire(g); }));
  }
  serve::TopologyCache cache(8, softmin, scenario.node_feature_scale,
                             scenario.flat_feature_scale);
  const serve::TopologyCache::EntryPtr entry = cache.acquire(g);

  TracedPolicy traced(policy);
  Tracer tracer;
  std::vector<double> sanitize_us, observation_us, softmin_us, validate_us,
      simulate_us;
  std::vector<rl::Observation> batch;
  {
    const ActiveTracer active(tracer);
    int decisions = 0;
    for (const auto& seq : scenario.test_sequences) {
      for (int t = kMemory; t < static_cast<int>(seq.size()) &&
                            decisions < kMaxDecisions;
           ++t, ++decisions) {
        const traffic::DemandMatrix& raw = seq[static_cast<std::size_t>(t)];
        traffic::DemandMatrix dm;
        serve::SanitizeReport report;
        sanitize_us.push_back(time_us([&] {
          dm = serve::sanitize_demands(raw, g.num_nodes(), serve::SanitizeLimits{},
                                       entry->reachable, report);
        }));
        rl::Observation obs;
        observation_us.push_back(time_us([&] {
          obs = core::RoutingEnv::build_observation(scenario, seq, t, kMemory);
        }));
        const std::vector<double> mean = rl::forward_policy(traced, obs).mean;
        if (static_cast<int>(batch.size()) < kBatchRows) batch.push_back(obs);
        routing::Routing r;
        softmin_us.push_back(time_us([&] {
          r = routing::softmin_routing(
              g, routing::weights_from_actions(mean, 0.5, 3.0), softmin);
        }));
        std::string error;
        validate_us.push_back(time_us(
            [&] { routing::validate_for_serving(g, r, dm, &error); }));
        simulate_us.push_back(time_us([&] { routing::simulate(g, r, dm); }));
      }
    }
    std::vector<const rl::Observation*> ptrs;
    for (const auto& o : batch) ptrs.push_back(&o);
    for (int k = 0; k < kBackwardRepeats; ++k) {
      rl::forward_action_means(traced, ptrs);
    }
  }
  const auto summary = summarize(tracer.spans());
  auto span_us = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : median(it->second.durations_s) * 1e6;
  };
  m["serve.topo_miss_us"] = {median(miss_us), "us"};
  m["serve.sanitize_us"] = {median(sanitize_us), "us"};
  m["core.observation_us"] = {median(observation_us), "us"};
  m["routing.softmin_us"] = {median(softmin_us), "us"};
  m["routing.validate_us"] = {median(validate_us), "us"};
  m["routing.simulate_us"] = {median(simulate_us), "us"};
  m["gnn.action_mean_us"] = {span_us("gnn.action_mean"), "us"};
  m["gnn.value_us"] = {span_us("gnn.value"), "us"};
  m["gnn.action_means_us"] = {span_us("gnn.action_means"), "us"};
  m["gnn.action_means_rows"] = {static_cast<double>(batch.size()),
                                "rows/call"};
}

// One PPO-shaped minibatch loss over collected samples, built the way
// PpoTrainer::update builds it (clipped surrogate, clipped value loss,
// entropy bonus, averaged over the minibatch).
nn::Tape::Var minibatch_loss(nn::Tape& tape, rl::Policy& policy,
                             const std::vector<rl::StepSample>& samples,
                             const rl::PpoConfig& ppo) {
  using Var = nn::Tape::Var;
  const auto clip = static_cast<float>(ppo.clip_epsilon);
  Var total = tape.zeros(1, 1);
  for (const rl::StepSample& s : samples) {
    const int adim = static_cast<int>(s.action.size());
    const Var mean = policy.action_mean(tape, s.obs);
    const Var log_std = policy.log_std_row(tape, adim);
    const Var log_prob = nn::diag_gaussian_log_prob(
        tape, mean, log_std,
        nn::Tensor::row(std::span<const double>(s.action.data(), s.action.size())));
    const Var ratio =
        tape.exp(tape.add_scalar(log_prob, static_cast<float>(-s.log_prob)));
    const auto adv = static_cast<float>(s.advantage);
    const Var policy_loss = tape.neg(tape.minimum(
        tape.scale(ratio, adv),
        tape.scale(tape.clip(ratio, 1.0F - clip, 1.0F + clip), adv)));
    const Var v = policy.value(tape, s.obs);
    const auto v_old = static_cast<float>(s.value);
    const auto ret = static_cast<float>(s.return_);
    const Var v_err = tape.square(tape.add_scalar(v, -ret));
    const Var v_clipped = tape.add_scalar(
        tape.clip(tape.add_scalar(v, -v_old), -clip, clip), v_old - ret);
    const Var value_loss =
        tape.scale(tape.maximum(v_err, tape.square(v_clipped)), 0.5F);
    const Var entropy = nn::diag_gaussian_entropy(tape, log_std);
    Var loss = tape.add(policy_loss,
                        tape.scale(value_loss, static_cast<float>(ppo.value_coef)));
    loss = tape.sub(loss,
                    tape.scale(entropy, static_cast<float>(ppo.entropy_coef)));
    total = tape.add(total, loss);
  }
  return tape.scale(total, 1.0F / static_cast<float>(samples.size()));
}

// A vectorised collection, then backward and Adam on one minibatch.
// Parameters are restored afterwards: the replay leaves the policy as
// it found it.
void replay_training(const core::Scenario& scenario, core::GnnPolicy& policy,
                     std::uint64_t seed, int steps_per_env, LayerMetrics& m) {
  const rl::PpoConfig ppo = core::routing_ppo_config();
  auto envs = core::make_vec_envs({scenario}, core::EnvConfig{}, seed + 1, 2);
  std::vector<rl::Env*> env_ptrs;
  for (auto& e : envs) env_ptrs.push_back(e.get());
  rl::VecEnvCollector collector(policy, env_ptrs, seed + 2);
  rl::RolloutBuffer buffer;
  const double collect_us = time_us(
      [&] { collector.collect(steps_per_env, ppo.reward_scale, buffer); });
  buffer.compute_gae(ppo.gamma, ppo.gae_lambda, 0.0, ppo.normalize_advantages);
  const std::size_t rows = std::min<std::size_t>(
      buffer.size(), static_cast<std::size_t>(ppo.minibatch_size));
  const std::vector<rl::StepSample> minibatch(
      buffer.samples().begin(),
      buffer.samples().begin() + static_cast<std::ptrdiff_t>(rows));

  std::vector<nn::Parameter*> params = policy.parameters();
  std::vector<nn::Tensor> saved;
  for (const nn::Parameter* p : params) saved.push_back(p->value);
  std::vector<double> backward_ms;
  nn::Tape tape;
  for (int k = 0; k < kBackwardRepeats; ++k) {
    tape.reset();
    const nn::Tape::Var loss = minibatch_loss(tape, policy, minibatch, ppo);
    nn::zero_grads(params);
    backward_ms.push_back(time_us([&] { tape.backward(loss); }) * 1e-3);
  }
  nn::Adam adam(ppo.learning_rate);
  std::vector<double> adam_us;
  for (int k = 0; k < kAdamRepeats; ++k) {
    adam_us.push_back(time_us([&] { adam.step(params); }));
  }
  for (std::size_t i = 0; i < params.size(); ++i) params[i]->value = saved[i];

  m["rl.collect_s"] = {collect_us * 1e-6, "s"};
  m["nn.backward_ms"] = {median(backward_ms), "ms"};
  m["nn.adam_step_us"] = {median(adam_us), "us"};
}

}  // namespace

LayerMetrics replay_layers(const core::Scenario& scenario,
                           core::GnnPolicy& policy, std::uint64_t seed,
                           int collect_steps_per_env) {
  LayerMetrics m;
  replay_mcf(scenario, m);
  replay_decision(scenario, policy, m);
  replay_training(scenario, policy, seed, collect_steps_per_env, m);
  return m;
}

void merge_missing(LayerMetrics& metrics, const LayerMetrics& fallback) {
  for (const auto& [name, metric] : fallback) metrics.emplace(name, metric);
}

}  // namespace perfbench
