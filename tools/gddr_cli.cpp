// gddr_cli — command-line front end to the GDDR library.
//
//   gddr_cli topos                        list the embedded catalogue
//   gddr_cli show <topology>              nodes, links, capacities
//   gddr_cli export <topology> <file>     write topology in gddr format
//   gddr_cli optimal <topology> [seed]    optimal congestion for a random DM
//   gddr_cli route <topology> [gamma]     softmin routing vs baselines
//   gddr_cli tables <topology> [gamma]    per-switch flow tables
//   gddr_cli eval <topology> [seed]       baseline schemes vs the LP optimum
//                                         over generated test sequences
//   gddr_cli train <topology> [steps]     PPO-train a GNN policy with
//                                         periodic atomic checkpoints
//       [--checkpoint <path>]             checkpoint file (default
//                                         gddr_train.ckpt)
//       [--resume <path>]                 resume a killed run bit-identically
//       [--every N]                       checkpoint every N iterations
//       [--seed S]
//   gddr_cli serve-sim <topology> [requests]
//                                         drive the resilient serving
//                                         pipeline (serve::RobustRouter)
//                                         over generated demand, optionally
//                                         degrading the topology mid-run
//       [--seed S] [--deadline-us N] [--gamma G]
//       [--policy <params file>]          serve trained weights instead of
//                                         a randomly initialised policy
//       [--fail-at N]                     degrade the topology from request
//                                         N onward (1-based)
//       [--heal-at M]                     restore it from request M onward
//       [--fail-links K]                  degrade by removing K random links
//       [--isolate V]                     degrade the topology by removing
//                                         every link leaving node V (makes
//                                         (V,*) demand unroutable)
//   gddr_cli publish <ckpt> --registry <dir>
//                                         validate a training checkpoint and
//                                         publish its parameters as the next
//                                         version in a lifecycle registry
//       [--retention K]                   newest versions kept on disk
//
//   serve-sim additionally accepts a registry mode that exercises the
//   full policy lifecycle (lifecycle::Promoter) against live simulated
//   traffic: the newest-but-one version serves as the incumbent and the
//   newest is staged as a candidate, shadow-evaluated, canaried and
//   promoted (or rolled back) while requests stream:
//       [--registry <dir>]                enables registry mode
//       [--shadow-frac F]                 fraction of live requests mirrored
//                                         through the candidate (default 0.25)
//       [--canary-frac F]                 fraction of real batches served by
//                                         the candidate (default 0.25)
//       [--promote-after N]               shadow pairs required before the
//                                         promotion gates are judged
//
//   gddr_cli serve-bench <topology> [requests]
//                                         drive the concurrent serving
//                                         engine (serve::Engine) with a
//                                         paced open-loop request stream
//                                         and report throughput, shed
//                                         counts and latency quantiles
//       [--qps Q]                         offered request rate (0 = unpaced)
//       [--batch B]                       micro-batch limit per GNN forward
//       [--shed-policy P]                 expired-first | reject-newest
//       [--queue-cap C]                   admission queue capacity
//       [--queue-deadline-us D]           per-request queueing deadline
//                                         (0 = none)
//       [--seed S] [--policy file]
//       [--json path]                     write a gddr.serve_bench.v1
//                                         summary for CI smoke checks
//
// All commands accept --workers N (default: hardware concurrency) to size
// the thread pool used by parallel evaluation and training, plus --metrics <path>
// [--metrics-every N] to stream per-iteration "gddr.metrics.v1" JSONL
// telemetry and print an end-of-run summary table (DESIGN.md §7).  The
// GDDR_METRICS environment variable does the same without flags.
// serve-bench reuses the same --workers value as the engine's worker
// thread count, so `gddr_cli serve-bench Abilene --workers 4` serves with
// four engine workers.
//
// Exit codes: 0 success, 1 runtime error, 2 usage, 3 solver failure
// (util::SolverError), 4 I/O failure (util::IoError); serve-sim adds
// 5 (some request exhausted its deadline budget) and 6 (some demand was
// dropped as unroutable on the degraded topology), with 5 taking
// precedence over 6.
//
// Fault injection: set GDDR_FAULTS (see util/fault.hpp for the spec
// grammar) to rehearse failure paths, e.g.
// GDDR_FAULTS=lp_solve@1+ forces every LP onto the FPTAS fallback.
//
// Topologies may name a catalogue entry or be a path to a
// gddr-topology file (see src/topo/io.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "graph/algorithms.hpp"
#include "lifecycle/promoter.hpp"
#include "nn/serialize.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "mcf/mean_util.hpp"
#include "mcf/optimal.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "routing/baselines.hpp"
#include "routing/forwarding.hpp"
#include "routing/softmin.hpp"
#include "topo/io.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace gddr;

int usage();

graph::DiGraph resolve_topology(const std::string& spec) {
  for (const auto& name : topo::catalogue_names()) {
    if (name == spec) return topo::by_name(spec);
  }
  return topo::load_topology_file(spec);
}

traffic::DemandMatrix random_demand(const graph::DiGraph& g,
                                    std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::BimodalParams params;
  params.pair_density = 0.3;
  return traffic::bimodal_matrix(g.num_nodes(), params, rng);
}

int cmd_topos() {
  util::Table table({"name", "|V|", "|E| (directed)", "total capacity"});
  for (const auto& name : topo::catalogue_names()) {
    const auto g = topo::by_name(name);
    table.add_row({name, std::to_string(g.num_nodes()),
                   std::to_string(g.num_edges()),
                   util::fmt(g.total_capacity(), 0)});
  }
  table.print();
  return 0;
}

int cmd_show(const std::string& spec) {
  const auto g = resolve_topology(spec);
  std::printf("%s: %d nodes, %d directed edges\n", g.name().c_str(),
              g.num_nodes(), g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edge(e);
    std::printf("  edge %2d: %2d -> %2d  capacity %.0f\n", e, ed.src, ed.dst,
                ed.capacity);
  }
  return 0;
}

int cmd_export(const std::string& spec, const std::string& path) {
  const auto g = resolve_topology(spec);
  topo::save_topology_file(path, g);
  std::printf("wrote %s to %s\n", g.name().c_str(), path.c_str());
  return 0;
}

int cmd_optimal(const std::string& spec, std::uint64_t seed) {
  const auto g = resolve_topology(spec);
  const auto dm = random_demand(g, seed);
  std::printf("%s with a bimodal demand matrix (seed %llu, total %.0f)\n",
              g.name().c_str(), static_cast<unsigned long long>(seed),
              dm.total());
  const auto opt = mcf::solve_optimal(g, dm);
  if (opt.provenance == mcf::SolveProvenance::kFailed) {
    throw util::SolverError("optimal congestion LP failed (unroutable)");
  }
  std::printf("optimal max link utilisation U*: %.4f (%s)\n", opt.u_max,
              mcf::to_string(opt.provenance));
  if (opt.provenance == mcf::SolveProvenance::kApproximate) {
    // FPTAS fallback: no flow decomposition, so skip the per-link report.
    return 0;
  }
  std::printf("optimal mean link utilisation:   %.4f\n",
              mcf::min_mean_utilisation(g, dm));
  const auto util = mcf::edge_utilisation(g, opt);
  std::vector<graph::EdgeId> order(static_cast<size_t>(g.num_edges()));
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    order[static_cast<size_t>(e)] = e;
  }
  std::sort(order.begin(), order.end(), [&](graph::EdgeId a, graph::EdgeId b) {
    return util[static_cast<size_t>(a)] > util[static_cast<size_t>(b)];
  });
  std::printf("most utilised links at the optimum:\n");
  for (int rank = 0; rank < 5 && rank < g.num_edges(); ++rank) {
    const graph::EdgeId e = order[static_cast<size_t>(rank)];
    const auto& ed = g.edge(e);
    std::printf("  %2d -> %2d: %.4f\n", ed.src, ed.dst,
                util[static_cast<size_t>(e)]);
  }
  return 0;
}

int cmd_route(const std::string& spec, double gamma) {
  const auto g = resolve_topology(spec);
  const auto dm = random_demand(g, 1);
  const double u_opt = mcf::solve_optimal(g, dm).u_max;

  routing::SoftminOptions options;
  options.gamma = gamma;
  const std::vector<double> weights(static_cast<size_t>(g.num_edges()), 1.0);

  util::Table table({"scheme", "U_max", "ratio to optimal"});
  auto row = [&](const std::string& label, const routing::Routing& r) {
    const auto sim = routing::simulate(g, r, dm);
    table.add_row({label, util::fmt(sim.u_max),
                   util::fmt(u_opt > 0 ? sim.u_max / u_opt : 0.0)});
  };
  row("softmin (gamma " + util::fmt(gamma, 1) + ")",
      routing::softmin_routing(g, weights, options));
  row("shortest path", routing::shortest_path_routing(g));
  row("ECMP", routing::ecmp_routing(g, graph::unit_weights(g)));
  table.add_row({"optimal (LP)", util::fmt(u_opt), "1.0000"});
  table.print();
  return 0;
}

int cmd_tables(const std::string& spec, double gamma) {
  const auto g = resolve_topology(spec);
  routing::SoftminOptions options;
  options.gamma = gamma;
  const std::vector<double> weights(static_cast<size_t>(g.num_edges()), 1.0);
  const auto r = routing::softmin_routing(g, weights, options);
  const auto tables = routing::to_flow_tables(g, r);
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    std::fputs(routing::format_flow_table(g, tables, v).c_str(), stdout);
  }
  return 0;
}

int cmd_eval(const std::string& spec, std::uint64_t seed,
             util::ThreadPool& pool) {
  using namespace gddr::core;
  util::Rng rng(seed);
  ScenarioParams params = experiment_scenario_params();
  params.train_sequences = 1;
  params.test_sequences = 2;
  const Scenario scenario = make_scenario(resolve_topology(spec), params, rng);
  const int memory = 5;
  mcf::OptimalCache cache;

  std::printf("%s: %d nodes, %d directed edges; %d test sequences, "
              "%d worker(s)\n",
              scenario.graph.name().c_str(), scenario.graph.num_nodes(),
              scenario.graph.num_edges(), params.test_sequences,
              pool.size() > 0 ? pool.size() : 1);

  util::Table table({"scheme", "mean ratio", "stddev", "max", "DMs"});
  auto row = [&](const std::string& label, const EvalResult& r) {
    table.add_row({label, util::fmt(r.mean_ratio), util::fmt(r.stddev),
                   util::fmt(r.max_ratio), std::to_string(r.steps)});
  };
  row("shortest path",
      evaluate_shortest_path({scenario}, memory, cache, &pool));
  row("ECMP", evaluate_fixed(
                  {scenario}, memory, cache,
                  [](const graph::DiGraph& gr) {
                    return routing::ecmp_routing(gr, graph::unit_weights(gr));
                  },
                  &pool));
  row("softmin (neutral)",
      evaluate_fixed(
          {scenario}, memory, cache,
          [](const graph::DiGraph& gr) {
            const std::vector<double> w(
                static_cast<size_t>(gr.num_edges()), 1.0);
            return routing::softmin_routing(gr, w);
          },
          &pool));
  table.print();
  std::printf("LP cache: %zu entries, %zu hits, %zu misses "
              "(%zu exact, %zu approximate solves)\n",
              cache.size(), cache.hits(), cache.misses(),
              cache.exact_solves(), cache.approx_solves());
  return 0;
}

struct TrainArgs {
  std::string topology;
  long steps = 1024;
  std::string checkpoint = "gddr_train.ckpt";
  std::string resume;
  long every = 1;
  std::uint64_t seed = 1;
};

int cmd_train(const TrainArgs& args, const obs::MetricsOptions& metrics,
              util::ThreadPool& pool) {
  using namespace gddr::core;
  util::Rng rng(args.seed);
  ScenarioParams params = experiment_scenario_params();
  params.train_sequences = 2;
  params.test_sequences = 1;

  ExperimentConfig cfg;
  cfg.scenarios = {
      make_scenario(resolve_topology(args.topology), params, rng)};
  cfg.ppo = routing_ppo_config();
  cfg.policy = experiment_gnn_config(cfg.env.memory);
  cfg.num_envs = 2;
  cfg.policy_seed = args.seed;
  cfg.train_seed = args.seed + 1;
  cfg.checkpoint_path = args.checkpoint;
  cfg.checkpoint_every_iterations = args.every;
  cfg.metrics_path = metrics.path;
  cfg.metrics_every_iterations = metrics.every;

  Experiment experiment(std::move(cfg), &pool);
  if (!args.resume.empty()) {
    experiment.resume_from(args.resume);
    std::printf("resumed from %s (iteration %ld, %ld env steps)\n",
                args.resume.c_str(), experiment.trainer().iterations(),
                experiment.trainer().total_env_steps());
  }

  // `steps` is the total budget: a resumed run trains only the remainder,
  // so kill + resume lands on the same final state as an unbroken run.
  const long remaining = args.steps - experiment.trainer().total_env_steps();
  if (remaining <= 0) {
    std::printf("nothing to do: checkpoint already has %ld of %ld steps\n",
                experiment.trainer().total_env_steps(), args.steps);
    return 0;
  }
  const auto history = experiment.train(remaining);
  util::Table table({"iter", "steps", "mean reward", "lr", "rollbacks"});
  long iter = experiment.trainer().iterations() -
              static_cast<long>(history.size());
  for (const auto& stats : history) {
    ++iter;
    table.add_row({std::to_string(iter), std::to_string(stats.steps),
                   util::fmt(stats.mean_episode_reward),
                   util::fmt(stats.learning_rate, 6),
                   std::to_string(stats.health_rollbacks)});
  }
  table.print();
  if (!args.checkpoint.empty()) {
    std::printf("checkpoint: %s (every %ld iteration(s))\n",
                args.checkpoint.c_str(), args.every);
  }
  if (obs::enabled()) {
    const std::string summary =
        obs::render_summary(obs::Registry::instance().snapshot());
    if (!summary.empty()) std::printf("%s\n", summary.c_str());
    if (!metrics.path.empty()) {
      std::printf("metrics: %s (every %d iteration(s))\n",
                  metrics.path.c_str(), metrics.every);
    }
  }
  return 0;
}

struct ServeSimArgs {
  std::string topology;
  long requests = 60;
  std::uint64_t seed = 1;
  long deadline_us = 1'000'000;
  double gamma = 2.0;
  std::string policy_path;
  long fail_at = 0;   // 0 = never degrade
  long heal_at = 0;   // 0 = never heal
  int fail_links = 0;
  int isolate = -1;   // node whose out-links are removed (-1 = none)
  // Registry mode (lifecycle::Promoter over live simulated traffic).
  std::string registry_dir;
  double shadow_frac = 0.25;
  double canary_frac = 0.25;
  long promote_after = 20;
};

// Registry mode: the newest-but-one registry version serves as the
// incumbent, the newest is staged as a candidate and taken through
// shadow → canary → live (or rolled back) by a lifecycle::Promoter
// wired into the serving engine's decision observer, while the same
// simulated request stream as plain serve-sim flows through an inline
// serve::Engine.  With a single version the registry incumbent just
// serves (nothing to stage).  Exit codes match plain serve-sim.
int cmd_serve_sim_registry(const ServeSimArgs& args,
                           const obs::MetricsOptions& metrics) {
  const auto g = resolve_topology(args.topology);

  lifecycle::RegistryConfig reg_cfg;
  reg_cfg.policy = core::experiment_gnn_config(5);
  lifecycle::ModelRegistry registry(args.registry_dir, reg_cfg);
  const std::vector<lifecycle::RegistryEntry> entries = registry.entries();
  if (entries.empty()) {
    throw util::IoError("serve-sim: registry '" + args.registry_dir +
                        "' is empty — run 'gddr_cli publish' first");
  }
  const std::uint64_t latest = registry.latest();
  const std::uint64_t incumbent_version =
      entries.size() >= 2 ? entries[entries.size() - 2].version : latest;

  serve::EngineConfig ecfg;
  ecfg.workers = 0;  // inline: deterministic, single-threaded driver
  ecfg.max_batch = 1;  // per-request batches: canary fraction ≈ request share
  ecfg.router.deadline = std::chrono::microseconds(args.deadline_us);
  ecfg.router.softmin.gamma = args.gamma;
  serve::Engine engine(nullptr, ecfg);
  engine.set_policy(registry.load(incumbent_version), incumbent_version);

  lifecycle::PromoterConfig pcfg;
  pcfg.shadow_fraction = args.shadow_frac;
  pcfg.canary_fraction = args.canary_frac;
  pcfg.promote_after = args.promote_after;
  pcfg.canary_decisions = std::max(1L, args.promote_after / 2);
  pcfg.router = ecfg.router;
  lifecycle::Promoter promoter(registry, engine, pcfg);
  engine.set_decision_observer(
      [&promoter](const serve::RouteRequest& request,
                  const serve::DecisionRecord& record) {
        promoter.observe(request, record);
      });
  if (latest != incumbent_version) promoter.stage(latest);

  traffic::BimodalParams dparams;
  dparams.pair_density = 0.3;
  util::Rng rng(args.seed);
  traffic::DemandSequence history;
  std::vector<std::future<serve::ServeOutcome>> futures;
  futures.reserve(static_cast<std::size_t>(args.requests));
  for (long i = 1; i <= args.requests; ++i) {
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = traffic::bimodal_matrix(g.num_nodes(), dparams, rng);
    request.history = history;
    history.push_back(request.demand);
    if (static_cast<int>(history.size()) > ecfg.router.memory) {
      history.erase(history.begin());
    }
    futures.push_back(engine.submit(std::move(request)));
    engine.poll();
  }
  engine.shutdown();
  long shed = 0;
  for (auto& future : futures) {
    if (future.get().shed) ++shed;
  }

  const lifecycle::Promoter::Summary summary = promoter.summary();
  std::printf("%s: %ld requests via registry %s "
              "(incumbent v%llu, latest v%llu)\n",
              g.name().c_str(), args.requests, args.registry_dir.c_str(),
              static_cast<unsigned long long>(incumbent_version),
              static_cast<unsigned long long>(latest));
  util::Table lifecycle_table({"lifecycle", "value"});
  lifecycle_table.add_row({"state", lifecycle::to_string(summary.state)});
  lifecycle_table.add_row({"live version",
                           std::to_string(engine.live_version())});
  lifecycle_table.add_row({"hot swaps", std::to_string(engine.swaps())});
  lifecycle_table.add_row({"shadow mirrored",
                           std::to_string(summary.shadow.mirrored)});
  lifecycle_table.add_row({"shadow win rate",
                           util::fmt(summary.shadow.win_rate(), 3)});
  lifecycle_table.add_row(
      {"shadow mean dU_max", util::fmt(summary.shadow.delta.mean(), 6)});
  lifecycle_table.add_row({"shadow p99 latency (us)",
                           util::fmt(summary.shadow.p99_latency_us, 1)});
  lifecycle_table.add_row({"canary served",
                           std::to_string(summary.canary_served)});
  lifecycle_table.add_row({"promotions", std::to_string(summary.promotions)});
  lifecycle_table.add_row({"rollbacks", std::to_string(summary.rollbacks)});
  if (!summary.rollback_reason.empty()) {
    lifecycle_table.add_row({"rollback reason", summary.rollback_reason});
  }
  lifecycle_table.print();

  const serve::RouterStats st = engine.router_stats();
  util::Table rungs({"rung", "decisions"});
  for (int r = 0; r < static_cast<int>(serve::Rung::kRungCount); ++r) {
    rungs.add_row({serve::rung_name(static_cast<serve::Rung>(r)),
                   std::to_string(st.rung_decisions[r])});
  }
  rungs.print();
  std::printf("shed: %ld; sanitiser: %ld degraded requests, %ld unroutable "
              "entries dropped\n",
              shed, st.sanitized_requests, st.unroutable_entries);
  // One cumulative gddr.metrics.v1 record (the CI lifecycle smoke
  // asserts the lifecycle/* counters from it).
  const std::string obs_summary = obs::finish(metrics);
  if (!obs_summary.empty()) std::printf("%s\n", obs_summary.c_str());
  if (st.deadline_exhausted > 0) return 5;
  if (st.unroutable_entries > 0) return 6;
  return 0;
}

struct PublishArgs {
  std::string checkpoint;
  std::string registry_dir;
  int retention = 8;
};

int cmd_publish(const PublishArgs& args) {
  lifecycle::RegistryConfig cfg;
  cfg.retention = args.retention;
  cfg.policy = core::experiment_gnn_config(5);
  lifecycle::ModelRegistry registry(args.registry_dir, cfg);
  const std::uint64_t version = registry.publish_file(args.checkpoint);
  std::printf("published %s as v%llu in %s (%zu version(s) on disk, "
              "retention %d)\n",
              args.checkpoint.c_str(),
              static_cast<unsigned long long>(version),
              args.registry_dir.c_str(), registry.entries().size(),
              args.retention);
  return 0;
}

// Exit code: 5 if any request exhausted its deadline, else 6 if any
// demand was dropped as unroutable, else 0.
int cmd_serve_sim(const ServeSimArgs& args,
                  const obs::MetricsOptions& metrics) {
  if (!args.registry_dir.empty()) {
    return cmd_serve_sim_registry(args, metrics);
  }
  const auto g = resolve_topology(args.topology);

  // Degraded variant served between --fail-at and --heal-at.
  graph::DiGraph degraded = g;
  util::Rng rng(args.seed);
  if (args.isolate >= 0) {
    if (args.isolate >= g.num_nodes()) {
      throw std::runtime_error("serve-sim: --isolate node out of range");
    }
    std::vector<bool> remove(static_cast<size_t>(g.num_edges()), false);
    for (const graph::EdgeId e :
         g.out_edges(static_cast<graph::NodeId>(args.isolate))) {
      remove[static_cast<size_t>(e)] = true;
    }
    degraded = g.without_edges(remove);
  }
  for (int k = 0; k < args.fail_links && degraded.num_edges() > 0; ++k) {
    degraded = degraded.without_edge(static_cast<graph::EdgeId>(
        rng.uniform_index(static_cast<size_t>(degraded.num_edges()))));
  }

  core::GnnPolicyConfig pcfg = core::experiment_gnn_config(5);
  util::Rng policy_rng(args.seed + 17);
  core::GnnPolicy policy(pcfg, policy_rng);
  if (!args.policy_path.empty()) {
    nn::load_parameters(args.policy_path, policy.parameters());
  }

  serve::RouterConfig rcfg;
  rcfg.deadline = std::chrono::microseconds(args.deadline_us);
  rcfg.softmin.gamma = args.gamma;
  serve::RobustRouter router(&policy, rcfg);

  traffic::BimodalParams dparams;
  dparams.pair_density = 0.3;
  traffic::DemandSequence history;
  double latency_sum = 0.0;
  double latency_max = 0.0;
  for (long i = 1; i <= args.requests; ++i) {
    const bool degraded_now =
        args.fail_at > 0 && i >= args.fail_at &&
        (args.heal_at == 0 || i < args.heal_at);
    const graph::DiGraph& active = degraded_now ? degraded : g;
    serve::RouteRequest request;
    request.graph = &active;
    request.demand =
        traffic::bimodal_matrix(active.num_nodes(), dparams, rng);
    request.history = history;
    const serve::RouteDecision decision = router.decide(request);
    latency_sum += decision.latency_s;
    latency_max = std::max(latency_max, decision.latency_s);
    history.push_back(request.demand);
    if (static_cast<int>(history.size()) > rcfg.memory) {
      history.erase(history.begin());
    }
  }

  const serve::RouterStats& st = router.stats();
  std::printf("%s: %ld requests (deadline %ld us, gamma %.1f, %s policy)\n",
              g.name().c_str(), args.requests, args.deadline_us, args.gamma,
              args.policy_path.empty() ? "random-init" : "trained");
  util::Table rungs({"rung", "decisions"});
  for (int r = 0; r < static_cast<int>(serve::Rung::kRungCount); ++r) {
    rungs.add_row({serve::rung_name(static_cast<serve::Rung>(r)),
                   std::to_string(st.rung_decisions[r])});
  }
  rungs.print();
  util::Table causes({"failure cause", "count"});
  for (int c = 1; c < static_cast<int>(serve::FailureCause::kCauseCount);
       ++c) {
    const long count = st.failure_causes[c];
    if (count == 0) continue;
    causes.add_row({serve::cause_name(static_cast<serve::FailureCause>(c)),
                    std::to_string(count)});
  }
  causes.print();
  const serve::CircuitBreaker::Stats& br = router.breaker().stats();
  std::printf("breaker: %s (%ld trips, %ld probes, %ld reopens, "
              "%ld recoveries)\n",
              serve::to_string(router.breaker().state()), br.trips,
              br.probes, br.reopens, br.recoveries);
  std::printf("sanitiser: %ld degraded requests, %ld unroutable entries "
              "dropped\n",
              st.sanitized_requests, st.unroutable_entries);
  std::printf("deadline exhausted: %ld; latency mean %.3f ms, max %.3f ms; "
              "topology cache: %zu entries, %ld hits, %ld misses\n",
              st.deadline_exhausted,
              args.requests > 0
                  ? latency_sum / static_cast<double>(args.requests) * 1e3
                  : 0.0,
              latency_max * 1e3, router.topology_cache().size(),
              router.topology_cache().hits(),
              router.topology_cache().misses());
  if (obs::enabled()) {
    const std::string summary =
        obs::render_summary(obs::Registry::instance().snapshot());
    if (!summary.empty()) std::printf("%s\n", summary.c_str());
  }
  if (st.deadline_exhausted > 0) return 5;
  if (st.unroutable_entries > 0) return 6;
  return 0;
}

struct ServeBenchArgs {
  std::string topology;
  long requests = 200;
  std::uint64_t seed = 1;
  long qps = 0;                // 0 = submit as fast as possible
  int batch = 8;
  std::string shed_policy = "expired-first";
  long queue_cap = 256;
  long queue_deadline_us = 0;  // 0 = requests never expire in the queue
  std::string policy_path;
  std::string json_path;
};

// Quantile as a JSON scalar: NaN (empty histogram) renders as null so a
// consumer asserting "p99 is a number" fails exactly when nothing was
// served.
std::string json_quantile(double value) {
  if (std::isnan(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f", value);
  return buffer;
}

int cmd_serve_bench(const ServeBenchArgs& args, int workers) {
  const auto g = resolve_topology(args.topology);

  core::GnnPolicyConfig pcfg = core::experiment_gnn_config(5);
  util::Rng policy_rng(args.seed + 17);
  core::GnnPolicy policy(pcfg, policy_rng);
  if (!args.policy_path.empty()) {
    nn::load_parameters(args.policy_path, policy.parameters());
  }

  serve::EngineConfig ecfg;
  ecfg.workers = workers;
  ecfg.queue_capacity = static_cast<std::size_t>(args.queue_cap);
  ecfg.max_batch = args.batch;
  if (!serve::parse_shed_policy(args.shed_policy, ecfg.shed_policy)) {
    std::fprintf(stderr, "serve-bench: unknown shed policy '%s'\n",
                 args.shed_policy.c_str());
    return usage();
  }
  ecfg.queue_deadline = std::chrono::microseconds(args.queue_deadline_us);
  ecfg.router.deadline = std::chrono::seconds(5);  // generous: CI boxes crawl

  // The engine's latency/batch histograms need serving-scale buckets; the
  // first definition wins, so install them before any request is served.
  obs::Registry& registry = obs::Registry::instance();
  registry.enable();
  registry.define_histogram(
      "serve/engine/latency_us",
      {50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0,
       50000.0, 100000.0, 200000.0, 500000.0, 1000000.0, 5000000.0});
  registry.define_histogram("serve/engine/batch_size",
                            {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0,
                             32.0, 64.0});

  // Pre-generate the demand stream so matrix generation is outside the
  // timed window.
  traffic::BimodalParams dparams;
  dparams.pair_density = 0.3;
  util::Rng rng(args.seed);
  std::vector<traffic::DemandMatrix> demands;
  demands.reserve(static_cast<std::size_t>(args.requests));
  for (long i = 0; i < args.requests; ++i) {
    demands.push_back(traffic::bimodal_matrix(g.num_nodes(), dparams, rng));
  }

  serve::Engine engine(&policy, ecfg);
  std::vector<std::future<serve::ServeOutcome>> futures;
  futures.reserve(static_cast<std::size_t>(args.requests));
  traffic::DemandSequence history;
  const auto start = std::chrono::steady_clock::now();
  const auto period =
      args.qps > 0 ? std::chrono::nanoseconds(1'000'000'000 / args.qps)
                   : std::chrono::nanoseconds(0);
  for (long i = 0; i < args.requests; ++i) {
    if (args.qps > 0) std::this_thread::sleep_until(start + period * i);
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = demands[static_cast<std::size_t>(i)];
    request.history = history;
    futures.push_back(engine.submit(std::move(request)));
    history.push_back(demands[static_cast<std::size_t>(i)]);
    if (static_cast<int>(history.size()) > ecfg.router.memory) {
      history.erase(history.begin());
    }
  }
  engine.shutdown();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  // Every future must resolve: served or shed, never abandoned.
  long served = 0;
  long shed = 0;
  for (auto& future : futures) {
    if (future.get().shed) {
      ++shed;
    } else {
      ++served;
    }
  }

  const serve::EngineStats stats = engine.stats();
  const bool conserved = stats.offered == args.requests &&
                         stats.offered == stats.served + stats.shed &&
                         stats.served == served && stats.shed == shed;

  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
  double mean_batch = 0.0;
  const obs::Snapshot snap = registry.snapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (name == "serve/engine/latency_us") {
      p50 = obs::histogram_quantile(h, 0.5);
      p99 = obs::histogram_quantile(h, 0.99);
    } else if (name == "serve/engine/batch_size" && h.count > 0) {
      mean_batch = h.sum / static_cast<double>(h.count);
    }
  }

  const double throughput =
      elapsed > 0.0 ? static_cast<double>(served) / elapsed : 0.0;
  std::printf("%s: %ld requests, %d worker(s), batch limit %d, "
              "%s shedding, qps %s\n",
              g.name().c_str(), args.requests, ecfg.workers, ecfg.max_batch,
              serve::shed_policy_name(ecfg.shed_policy),
              args.qps > 0 ? std::to_string(args.qps).c_str() : "unpaced");
  util::Table table({"metric", "value"});
  table.add_row({"offered", std::to_string(stats.offered)});
  table.add_row({"served", std::to_string(stats.served)});
  table.add_row({"shed", std::to_string(stats.shed)});
  table.add_row({"batches", std::to_string(stats.batches)});
  table.add_row({"mean batch size", util::fmt(mean_batch, 2)});
  table.add_row({"throughput (req/s)", util::fmt(throughput, 1)});
  table.add_row({"p50 latency (us)",
                 std::isnan(p50) ? "n/a" : util::fmt(p50, 1)});
  table.add_row({"p99 latency (us)",
                 std::isnan(p99) ? "n/a" : util::fmt(p99, 1)});
  table.print();
  const serve::RouterStats rst = engine.router_stats();
  util::Table rungs({"rung", "decisions"});
  for (int r = 0; r < static_cast<int>(serve::Rung::kRungCount); ++r) {
    rungs.add_row({serve::rung_name(static_cast<serve::Rung>(r)),
                   std::to_string(rst.rung_decisions[r])});
  }
  rungs.print();
  const serve::CircuitBreaker::Stats& br = engine.breaker().stats();
  std::printf("breaker: %s (%ld trips, %ld probes, %ld recoveries); "
              "topology cache: %zu entries, %ld hits, %ld misses\n",
              serve::to_string(engine.breaker().state()), br.trips, br.probes,
              br.recoveries, engine.topology_cache().size(),
              engine.topology_cache().hits(),
              engine.topology_cache().misses());
  if (!conserved) {
    std::fprintf(stderr,
                 "serve-bench: conservation violated: offered %ld != "
                 "served %ld + shed %ld\n",
                 stats.offered, stats.served, stats.shed);
  }

  if (!args.json_path.empty()) {
    char buffer[768];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"schema\": \"gddr.serve_bench.v1\", \"topology\": \"%s\", "
        "\"workers\": %d, \"batch\": %d, \"qps\": %ld, "
        "\"shed_policy\": \"%s\", \"offered\": %ld, \"served\": %ld, "
        "\"shed\": %ld, \"batches\": %ld, \"mean_batch_size\": %.2f, "
        "\"throughput_rps\": %.1f, \"p50_latency_us\": %s, "
        "\"p99_latency_us\": %s, \"breaker_trips\": %ld, "
        "\"conserved\": %s}\n",
        g.name().c_str(), ecfg.workers, ecfg.max_batch, args.qps,
        serve::shed_policy_name(ecfg.shed_policy), stats.offered,
        stats.served, stats.shed, stats.batches, mean_batch, throughput,
        json_quantile(p50).c_str(), json_quantile(p99).c_str(), br.trips,
        conserved ? "true" : "false");
    util::write_file_atomic(args.json_path, buffer);
    std::printf("wrote %s\n", args.json_path.c_str());
  }
  return conserved ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: gddr_cli [--workers N] [--metrics path "
               "[--metrics-every N]] <command> [...]\n"
               "  topos\n"
               "  show <topology>\n"
               "  export <topology> <file>\n"
               "  optimal <topology> [seed]\n"
               "  route <topology> [gamma]\n"
               "  tables <topology> [gamma]\n"
               "  eval <topology> [seed]\n"
               "  train <topology> [steps] [--checkpoint path] "
               "[--resume ckpt] [--every N] [--seed S]\n"
               "  serve-sim <topology> [requests] [--seed S] "
               "[--deadline-us N] [--gamma G] [--policy file]\n"
               "            [--fail-at N] [--heal-at M] [--fail-links K] "
               "[--isolate V]\n"
               "            [--registry dir] [--shadow-frac F] "
               "[--canary-frac F] [--promote-after N]\n"
               "  publish <ckpt> --registry <dir> [--retention K]\n"
               "  serve-bench <topology> [requests] [--qps Q] [--batch B]\n"
               "            [--shed-policy expired-first|reject-newest] "
               "[--queue-cap C]\n"
               "            [--queue-deadline-us D] [--seed S] "
               "[--policy file] [--json path]\n"
               "            (--workers N also sets the engine's worker "
               "thread count)\n"
               "<topology> is a catalogue name (see 'topos') or a "
               "gddr-topology file path.\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 solver, 4 I/O,\n"
               "            5 serve deadline exhausted, 6 serve demand "
               "unroutable (5 beats 6)\n");
  return 2;
}

int run(int argc, char** argv, util::ThreadPool& pool,
        const obs::MetricsOptions& metrics, int workers) {
  const std::string command = argv[1];
  if (command == "topos") return cmd_topos();
  if (command == "show" && argc >= 3) return cmd_show(argv[2]);
  if (command == "export" && argc >= 4) return cmd_export(argv[2], argv[3]);
  if (command == "optimal" && argc >= 3) {
    return cmd_optimal(argv[2],
                       argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 1);
  }
  if (command == "route" && argc >= 3) {
    return cmd_route(argv[2], argc >= 4 ? std::atof(argv[3]) : 2.0);
  }
  if (command == "tables" && argc >= 3) {
    return cmd_tables(argv[2], argc >= 4 ? std::atof(argv[3]) : 2.0);
  }
  if (command == "eval" && argc >= 3) {
    return cmd_eval(argv[2],
                    argc >= 4 ? std::strtoull(argv[3], nullptr, 10) : 1,
                    pool);
  }
  if (command == "train" && argc >= 3) {
    TrainArgs args;
    args.topology = argv[2];
    int i = 3;
    if (i < argc && argv[i][0] != '-') {
      args.steps = std::strtol(argv[i], nullptr, 10);
      if (args.steps <= 0) return usage();
      ++i;
    }
    for (; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const char* value = argv[++i];
      if (flag == "--checkpoint") {
        args.checkpoint = value;
      } else if (flag == "--resume") {
        args.resume = value;
      } else if (flag == "--every") {
        args.every = std::strtol(value, nullptr, 10);
        if (args.every <= 0) return usage();
      } else if (flag == "--seed") {
        args.seed = std::strtoull(value, nullptr, 10);
      } else {
        return usage();
      }
    }
    return cmd_train(args, metrics, pool);
  }
  if (command == "serve-sim" && argc >= 3) {
    ServeSimArgs args;
    args.topology = argv[2];
    int i = 3;
    if (i < argc && argv[i][0] != '-') {
      args.requests = std::strtol(argv[i], nullptr, 10);
      if (args.requests <= 0) return usage();
      ++i;
    }
    for (; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const char* value = argv[++i];
      if (flag == "--seed") {
        args.seed = std::strtoull(value, nullptr, 10);
      } else if (flag == "--deadline-us") {
        args.deadline_us = std::strtol(value, nullptr, 10);
        if (args.deadline_us <= 0) return usage();
      } else if (flag == "--gamma") {
        args.gamma = std::atof(value);
        if (args.gamma <= 0.0) return usage();
      } else if (flag == "--policy") {
        args.policy_path = value;
      } else if (flag == "--fail-at") {
        args.fail_at = std::strtol(value, nullptr, 10);
        if (args.fail_at <= 0) return usage();
      } else if (flag == "--heal-at") {
        args.heal_at = std::strtol(value, nullptr, 10);
        if (args.heal_at <= 0) return usage();
      } else if (flag == "--fail-links") {
        args.fail_links = static_cast<int>(std::strtol(value, nullptr, 10));
        if (args.fail_links < 0) return usage();
      } else if (flag == "--isolate") {
        args.isolate = static_cast<int>(std::strtol(value, nullptr, 10));
        if (args.isolate < 0) return usage();
      } else if (flag == "--registry") {
        args.registry_dir = value;
      } else if (flag == "--shadow-frac") {
        args.shadow_frac = std::atof(value);
        if (args.shadow_frac <= 0.0 || args.shadow_frac > 1.0) return usage();
      } else if (flag == "--canary-frac") {
        args.canary_frac = std::atof(value);
        if (args.canary_frac <= 0.0 || args.canary_frac > 1.0) return usage();
      } else if (flag == "--promote-after") {
        args.promote_after = std::strtol(value, nullptr, 10);
        if (args.promote_after <= 0) return usage();
      } else {
        return usage();
      }
    }
    return cmd_serve_sim(args, metrics);
  }
  if (command == "publish" && argc >= 3) {
    PublishArgs args;
    args.checkpoint = argv[2];
    for (int i = 3; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const char* value = argv[++i];
      if (flag == "--registry") {
        args.registry_dir = value;
      } else if (flag == "--retention") {
        args.retention = static_cast<int>(std::strtol(value, nullptr, 10));
        if (args.retention < 1) return usage();
      } else {
        return usage();
      }
    }
    if (args.registry_dir.empty()) return usage();
    return cmd_publish(args);
  }
  if (command == "serve-bench" && argc >= 3) {
    ServeBenchArgs args;
    args.topology = argv[2];
    int i = 3;
    if (i < argc && argv[i][0] != '-') {
      args.requests = std::strtol(argv[i], nullptr, 10);
      if (args.requests <= 0) return usage();
      ++i;
    }
    for (; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage();
      const char* value = argv[++i];
      if (flag == "--seed") {
        args.seed = std::strtoull(value, nullptr, 10);
      } else if (flag == "--qps") {
        args.qps = std::strtol(value, nullptr, 10);
        if (args.qps < 0) return usage();
      } else if (flag == "--batch") {
        args.batch = static_cast<int>(std::strtol(value, nullptr, 10));
        if (args.batch <= 0) return usage();
      } else if (flag == "--shed-policy") {
        args.shed_policy = value;
      } else if (flag == "--queue-cap") {
        args.queue_cap = std::strtol(value, nullptr, 10);
        if (args.queue_cap <= 0) return usage();
      } else if (flag == "--queue-deadline-us") {
        args.queue_deadline_us = std::strtol(value, nullptr, 10);
        if (args.queue_deadline_us < 0) return usage();
      } else if (flag == "--policy") {
        args.policy_path = value;
      } else if (flag == "--json") {
        args.json_path = value;
      } else {
        return usage();
      }
    }
    return cmd_serve_bench(args, workers);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  int workers = 0;
  gddr::obs::MetricsOptions metrics;
  try {
    workers = util::consume_workers_flag(argc, argv);
    metrics = gddr::obs::consume_metrics_flag(argc, argv);
    gddr::obs::apply(metrics);
    util::FaultInjector::instance().arm_from_env();
  } catch (const util::IoError& ex) {
    // A malformed GDDR_FAULTS schedule (or metrics sink) is an I/O-class
    // failure: exit 4, like every other bad external input.
    std::fprintf(stderr, "I/O error: %s\n", ex.what());
    return 4;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 2;
  }
  if (argc < 2) return usage();
  try {
    util::ThreadPool pool(workers);
    return run(argc, argv, pool, metrics, workers);
  } catch (const util::IoError& ex) {
    std::fprintf(stderr, "I/O error: %s\n", ex.what());
    return 4;
  } catch (const util::SolverError& ex) {
    std::fprintf(stderr, "solver error: %s\n", ex.what());
    return 3;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "error: %s\n", ex.what());
    return 1;
  } catch (...) {
    // Last-resort guard: a non-std exception must still produce a
    // diagnostic and a defined exit code instead of std::terminate.
    std::fprintf(stderr, "error: unknown exception\n");
    return 1;
  }
}
