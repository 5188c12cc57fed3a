// eval_geant: scores a seeded GNN policy, hop-count shortest path and
// inverse-capacity softmin against the exact MCF optimum on GeantLike,
// through the program's parallel evaluation path.
//
// The run proceeds in rounds.  Each round draws fresh test sequences —
// kSequencesPerWorker per pool worker, each scoring one demand matrix
// that occurs nowhere else — and a fresh OptimalCache, so every optimum
// is a cold LP solve and the solver dominates the wall time.  A round
// calls core::evaluate_policy, evaluate_shortest_path and evaluate_fixed
// with the pool, as `gddr_cli eval` does, and each splits the sequences
// over the workers itself: the GNN pass solves every optimum, the two
// baselines then score against the warm cache.
#include <algorithm>
#include <cmath>
#include <memory>

#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "mcf/fptas.hpp"
#include "mcf/optimal.hpp"
#include "routing/baselines.hpp"
#include "routing/softmin.hpp"
#include "stats.hpp"
#include "topo/zoo.hpp"
#include "traced.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gddr;

constexpr int kMemory = 5;
constexpr int kScoredPerSequence = 1;
constexpr int kSequencesPerWorker = 3;
constexpr int kSetupRepeats = 31;
constexpr int kMinRounds = 3;
constexpr int kTracedRounds = 1;
constexpr double kRatioFloor = 1.0 - 1e-9;
constexpr double kFptasEpsilon = 0.05;

routing::Routing inverse_capacity_softmin(const graph::DiGraph& g) {
  return routing::softmin_routing(g, routing::inverse_capacity_weights(g));
}

// Test sequences for round `round`: distinct matrices throughout (the
// cycle is as long as the sequence, and every sequence is drawn afresh).
core::Scenario make_round_scenario(const graph::DiGraph& g, std::uint64_t seed,
                                   int round, int sequences) {
  util::Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(round));
  core::ScenarioParams params = core::experiment_scenario_params();
  params.sequence_length = kMemory + kScoredPerSequence;
  params.cycle_length = params.sequence_length;
  params.train_sequences = 1;
  params.test_sequences = sequences;
  return core::make_scenario(g, params, rng);
}

// What set-up builds.  The pool is the caller's: spawning threads is not
// part of set-up.
struct Rig {
  graph::DiGraph graph;
  std::unique_ptr<core::GnnPolicy> policy;
  std::unique_ptr<TracedPolicy> traced_policy;
  // evaluate_policy drives the trainer's deterministic action; this env
  // only anchors the trainer and is never stepped.
  std::unique_ptr<core::RoutingEnv> anchor_env;
  std::unique_ptr<rl::PpoTrainer> trainer;
};

std::unique_ptr<Rig> build_rig(std::uint64_t seed, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->graph = topo::by_name("GeantLike");
  util::Rng policy_rng(seed);
  rig->policy = std::make_unique<core::GnnPolicy>(
      core::experiment_gnn_config(kMemory), policy_rng);
  rl::Policy* policy = rig->policy.get();
  if (traced) {
    rig->traced_policy = std::make_unique<TracedPolicy>(*rig->policy);
    policy = rig->traced_policy.get();
  }
  rig->anchor_env = std::make_unique<core::RoutingEnv>(
      std::vector<core::Scenario>{make_round_scenario(rig->graph, seed, -1, 1)},
      core::EnvConfig{}, seed);
  rig->trainer = std::make_unique<rl::PpoTrainer>(
      *policy, *rig->anchor_env, core::routing_ppo_config(), seed);
  return rig;
}

struct RoundResult {
  double wall_s = 0.0;
  int dms = 0;
  double min_ratio = 0.0;
  std::size_t exact = 0;
  std::size_t approx = 0;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

// One round over `scenario`'s test sequences; only the evaluate_* calls
// are timed.  With `presolve` (the traced run), the round first solves
// each optimum cold under an mcf.solve span and the schemes then score
// against the warm cache; the work is the same.
RoundResult run_round(Rig& rig, util::ThreadPool& pool,
                      const core::Scenario& scenario, std::uint64_t seed,
                      bool presolve) {
  auto cache = std::make_shared<mcf::OptimalCache>();
  core::RoutingEnv env({scenario}, core::EnvConfig{}, seed);
  env.set_shared_cache(cache);
  env.set_mode(core::RoutingEnv::Mode::kTest);
  core::EvalResult gnn;
  core::EvalResult sp;
  core::EvalResult ic;
  RoundResult r;
  const Clock::time_point start = Clock::now();
  {
    const Scope round("bench.round");
    if (presolve) {
      for (const auto& seq : scenario.test_sequences) {
        for (int t = kMemory; t < static_cast<int>(seq.size()); ++t) {
          const Scope solve("mcf.solve");
          cache->u_max(scenario.graph, seq[static_cast<std::size_t>(t)]);
        }
      }
    }
    {
      const Scope span("core.evaluate_policy");
      gnn = core::evaluate_policy(*rig.trainer, env, &pool);
    }
    {
      const Scope span("core.evaluate_fixed");
      sp = core::evaluate_shortest_path({scenario}, kMemory, *cache, &pool);
      ic = core::evaluate_fixed({scenario}, kMemory, *cache,
                                inverse_capacity_softmin, &pool);
    }
  }
  r.wall_s = seconds_since(start);
  r.dms = gnn.steps;
  r.min_ratio = std::min({gnn.min_ratio, sp.min_ratio, ic.min_ratio});
  r.exact = cache->exact_solves();
  r.approx = cache->approx_solves();
  r.hits = cache->hits();
  r.misses = cache->misses();
  return r;
}

// The FPTAS value must bracket the exact optimum:
// U* <= U_fptas <= U* / (1 - 3 eps).
bool fptas_brackets(const graph::DiGraph& g, const traffic::DemandMatrix& dm,
                    double* exact_out, double* approx_out) {
  const mcf::OptimalResult exact = mcf::solve_optimal(g, dm);
  mcf::FptasOptions options;
  options.epsilon = kFptasEpsilon;
  const double approx = mcf::approx_optimal_u_max(g, dm, options);
  *exact_out = exact.u_max;
  *approx_out = approx;
  return exact.provenance == mcf::SolveProvenance::kExact &&
         approx >= exact.u_max * (1.0 - 1e-9) &&
         approx <= exact.u_max / (1.0 - 3.0 * kFptasEpsilon) * (1.0 + 1e-9);
}

}  // namespace

Outcome run_eval(const Options& options) {
  Outcome out;
  const int workers = options.nproc;
  const int sequences = kSequencesPerWorker * workers;
  out.note("workers", static_cast<double>(workers));
  out.note("scored_per_sequence", static_cast<double>(kScoredPerSequence));
  out.note("sequences_per_round", static_cast<double>(sequences));

  if (options.trace) {
    // Untraced and traced rounds on one worker over the same matrices.
    util::ThreadPool one_worker(1);
    std::vector<double> plain;
    std::unique_ptr<Rig> base = build_rig(options.seed, false);
    for (int k = 0; k < kTracedRounds; ++k) {
      const core::Scenario s =
          make_round_scenario(base->graph, options.seed, k, sequences);
      plain.push_back(
          run_round(*base, one_worker, s, options.seed, false).wall_s);
    }
    std::unique_ptr<Rig> rig = build_rig(options.seed, true);
    Tracer tracer;
    std::vector<double> traced;
    RoundResult last;
    {
      const ActiveTracer active(tracer);
      for (int k = 0; k < kTracedRounds; ++k) {
        const core::Scenario s =
            make_round_scenario(rig->graph, options.seed, k, sequences);
        last = run_round(*rig, one_worker, s, options.seed, true);
        traced.push_back(last.wall_s);
        out.check(last.min_ratio >= kRatioFloor, "U_agent/U_opt below 1");
        out.attempted += last.dms;
        out.failed += static_cast<long>(last.approx);
      }
    }
    const std::vector<Span> spans = tracer.spans();
    const auto summary = summarize(spans);
    LayerMetrics metrics;
    if (const auto it = summary.find("mcf.solve"); it != summary.end()) {
      metrics["mcf.solve_ms.p50"] = {quantile(it->second.durations_s, 0.5) * 1e3,
                                     "ms"};
      metrics["mcf.solve_ms.p90"] = {quantile(it->second.durations_s, 0.9) * 1e3,
                                     "ms"};
    }
    auto per_call_us = [&](const char* name) {
      const auto it = summary.find(name);
      return it == summary.end() ? 0.0 : median(it->second.durations_s) * 1e6;
    };
    auto count = [&](const char* name) {
      const auto it = summary.find(name);
      return it == summary.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    metrics["gnn.action_mean_us"] = {per_call_us("gnn.action_mean"), "us"};
    metrics["gnn.value_us"] = {per_call_us("gnn.value"), "us"};
    metrics["gnn.forwards_per_iter"] = {
        (count("gnn.action_mean") + count("gnn.value")) /
            std::max(1.0, static_cast<double>(out.attempted)),
        "calls/unit"};
    const double solves = static_cast<double>(last.exact + last.approx);
    metrics["mcf.exact_frac"] = {solves > 0 ? last.exact / solves : 0.0, "ratio"};
    const double lookups = static_cast<double>(last.hits + last.misses);
    metrics["mcf.cache_hit_ratio"] = {lookups > 0 ? last.hits / lookups : 0.0,
                                      "ratio"};
    metrics["mcf.cache_lookups"] = {lookups, "count"};
    metrics["trace.coverage"] = {coverage(spans), "ratio"};
    metrics["trace.overhead"] = {median(traced) / median(plain) - 1.0, "ratio"};

    const core::Scenario probe =
        make_round_scenario(rig->graph, options.seed, 0, 1);
    merge_missing(metrics, replay_layers(probe, *rig->policy, options.seed, 16));
    rl::PpoConfig ppo = core::routing_ppo_config();
    ppo.rollout_steps = 32;
    ppo.epochs = 1;
    ppo.minibatch_size = 32;
    merge_missing(metrics, trace_training(probe, ppo, 1, options.seed).metrics);
    merge_missing(metrics, trace_serving_probe(out, options.seed));
    out.metrics = metrics;
    out.note("spans", static_cast<double>(spans.size()));
    write_spans(options.out_dir + "/spans-" + options.workload + "-seed" +
                    std::to_string(options.seed) + ".json",
                spans);
    return out;
  }

  // Set-up (everything but the pool, which the caller owns) is timed
  // kSetupRepeats times before the measured phase; the last build is the
  // one evaluated.
  util::ThreadPool pool(workers);
  std::vector<double> setup_times;
  std::unique_ptr<Rig> rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = build_rig(options.seed, false);
    setup_times.push_back(seconds_since(start));
  }

  std::vector<double> round_times;
  std::vector<double> per_dm_ms;  // each round's time per matrix scored
  double total_s = 0.0;
  long dms = 0;
  double min_ratio = 1e300;
  core::Scenario first;
  const Clock::time_point begin = Clock::now();
  for (int k = 0; k < kMinRounds || seconds_since(begin) < options.seconds;
       ++k) {
    const core::Scenario s =
        make_round_scenario(rig->graph, options.seed, k, sequences);
    const RoundResult r = run_round(*rig, pool, s, options.seed, false);
    if (k == 0) first = s;
    round_times.push_back(r.wall_s);
    per_dm_ms.push_back(r.wall_s / r.dms * 1e3);
    total_s += r.wall_s;
    dms += r.dms;
    min_ratio = std::min(min_ratio, r.min_ratio);
    out.failed += static_cast<long>(r.approx);
    out.check(r.dms == sequences * kScoredPerSequence,
              "every test sequence scores its matrices");
    out.check(r.misses == static_cast<std::size_t>(r.dms),
              "every scored matrix needs exactly one cold solve");
  }
  const double peak = peak_rss_mb();
  out.attempted = dms;
  out.check(min_ratio >= kRatioFloor, "U_agent/U_opt below 1 - 1e-9");
  double exact = 0.0;
  double approx = 0.0;
  const bool bracket = fptas_brackets(
      first.graph, first.test_sequences.front()[kMemory], &exact, &approx);
  out.check(bracket, "FPTAS value does not bracket the exact optimum");

  out.set("setup_s", median(setup_times), "s");
  out.set("peak_rss_mb", peak, "MB");
  out.set("ok_frac", 1.0 - static_cast<double>(out.failed) / dms, "ratio");
  out.set("throughput", dms / total_s, "1/s");
  out.set("p50_ms", median(per_dm_ms), "ms");
  out.set("p90_ms", quantile(per_dm_ms, 0.9), "ms");
  out.note("round_times_s", json_numbers(round_times));
  out.note("eval_dm_per_s", dms / total_s);
  out.note("rounds", static_cast<double>(round_times.size()));
  out.note("dms", static_cast<double>(dms));
  out.note("min_ratio", min_ratio);
  out.note("fptas_check", Json::object({{"exact", Json::number(exact)},
                                        {"fptas", Json::number(approx)},
                                        {"epsilon", Json::number(kFptasEpsilon)}}));
  out.note("fail_frac", static_cast<double>(out.failed) / dms);
  return out;
}

}  // namespace perfbench
