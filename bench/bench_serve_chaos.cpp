// Chaos harness for the resilient serving pipeline (serve::RobustRouter).
//
// Three phases:
//  1. Overhead — the fault-free serving path vs the bare inference
//     pipeline (observation, policy forward, softmin, simulation) on the
//     same request stream; reports the router's added latency.  The
//     acceptance target is ~1% on a quiet machine; the hard assertion is
//     deliberately lenient (15%) so sanitiser and CI-noise runs pass.
//  2. Chaos sweep — every single-link and single-node failure of two
//     embedded topologies, served under an armed fault schedule
//     (GDDR_FAULTS when set, a default mix otherwise).  Asserts the
//     serving contract: no exception ever escapes decide(), and every
//     decision that routes traffic satisfies the full §IV-A validity
//     check (out-of-band routing::validate over all reachable pairs).
//  3. Breaker cycle — forces rung-1 failures until the circuit breaker
//     trips, lets the backoff elapse, and asserts the half-open probe
//     recovers the top rung.
//
// --json writes BENCH_serve_chaos.json ("gddr.bench_serve_chaos.v1") for
// the CI chaos smoke leg.  Exit code 0 iff every assertion held.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "rl/forward.hpp"
#include "routing/routing.hpp"
#include "routing/softmin.hpp"
#include "serve/router.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gddr;

constexpr int kOverheadRequests = 32;
constexpr int kOverheadReps = 3;
constexpr int kChaosRequests = 10;
constexpr const char* kDefaultSchedule =
    "policy_nan@2,request_garbage@4,policy_slow@6,topo_change@8";

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Tally {
  long requests = 0;
  long exceptions = 0;
  long invalid_routings = 0;
  long rungs[static_cast<int>(serve::Rung::kRungCount)] = {};
  long deadline_exhausted = 0;
  long unroutable_dropped = 0;
  long sanitized_requests = 0;
  bool top_rung_recovered = true;
};

serve::RouterConfig chaos_config() {
  serve::RouterConfig config;
  config.deadline = std::chrono::seconds(5);  // generous: CI boxes crawl
  return config;
}

std::vector<traffic::DemandMatrix> make_demands(const graph::DiGraph& g,
                                                int count,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  traffic::BimodalParams params;
  params.pair_density = 0.3;
  std::vector<traffic::DemandMatrix> demands;
  demands.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    demands.push_back(traffic::bimodal_matrix(g.num_nodes(), params, rng));
  }
  return demands;
}

// A demand of 1 on every reachable off-diagonal pair: validating the
// decision's routing against it checks the §IV-A contract on every pair
// the topology can serve, not just the pairs this request used.
traffic::DemandMatrix reachable_mesh(const graph::DiGraph& g,
                                     const std::vector<bool>& reachable) {
  const int n = g.num_nodes();
  traffic::DemandMatrix dm(n);
  for (int s = 0; s < n; ++s) {
    for (int t = 0; t < n; ++t) {
      if (s != t && reachable[static_cast<size_t>(s) * static_cast<size_t>(n) +
                              static_cast<size_t>(t)]) {
        dm.set(s, t, 1.0);
      }
    }
  }
  return dm;
}

// Serves `demands` through `router`, validating every decision
// out-of-band.  History handling mirrors gddr_cli serve-sim.
void drive(serve::RobustRouter& router, const graph::DiGraph& g,
           const std::vector<traffic::DemandMatrix>& demands, Tally& tally) {
  traffic::DemandSequence history;
  for (size_t i = 0; i < demands.size(); ++i) {
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = demands[i];
    request.history = history;
    serve::RouteDecision decision;
    try {
      decision = router.decide(request);
    } catch (...) {
      ++tally.exceptions;
      continue;
    }
    ++tally.requests;
    ++tally.rungs[static_cast<int>(decision.rung)];
    if (decision.deadline_exhausted) ++tally.deadline_exhausted;
    tally.unroutable_dropped += decision.sanitize.unroutable_entries;
    if (!decision.sanitize.clean()) ++tally.sanitized_requests;

    if (decision.rung == serve::Rung::kDropTraffic) {
      // Dropping all traffic is always contract-clean, but only if it
      // really did drop everything.
      if (decision.routed_demand != 0.0 || decision.sim.u_max != 0.0) {
        ++tally.invalid_routings;
      }
    } else {
      const serve::TopologyCache::EntryPtr entry =
          router.topology_cache().acquire(g);
      const traffic::DemandMatrix mesh = reachable_mesh(g, entry->reachable);
      std::string error;
      if (!routing::validate(g, decision.routing, mesh, &error)) {
        ++tally.invalid_routings;
        std::fprintf(stderr, "INVALID ROUTING (%s): %s\n",
                     serve::rung_name(decision.rung), error.c_str());
      }
    }
    if (i + 1 == demands.size() &&
        decision.rung != serve::Rung::kGnnPolicy) {
      // With the one-shot schedule spent, the final request must be back
      // on the learned rung.
      tally.top_rung_recovered = false;
    }
    history.push_back(request.demand);
    if (static_cast<int>(history.size()) > router.config().memory) {
      history.erase(history.begin());
    }
  }
}

// Bare inference pipeline: what a non-robust server would run.
double direct_pipeline_seconds(core::GnnPolicy& policy,
                               const core::Scenario& scenario,
                               const std::vector<traffic::DemandMatrix>& demands,
                               int memory) {
  const graph::DiGraph& g = scenario.graph;
  const double start = now_seconds();
  traffic::DemandSequence history;
  for (const auto& dm : demands) {
    traffic::DemandSequence window;
    const int have = std::min<int>(static_cast<int>(history.size()), memory);
    for (int i = 0; i < memory - have; ++i) window.emplace_back(g.num_nodes());
    for (int i = have; i > 0; --i) {
      window.push_back(history[history.size() - static_cast<size_t>(i)]);
    }
    const rl::Observation obs = core::RoutingEnv::build_observation(
        scenario, window, memory, memory);
    // The same mean-only forward rung 1 runs: a batch of one.
    const std::vector<double> mean =
        rl::forward_action_means(policy, {&obs}).front();
    const std::vector<double> weights =
        routing::weights_from_actions(mean, 0.5, 3.0);
    const routing::Routing strategy = routing::softmin_routing(g, weights);
    const routing::SimulationResult sim = routing::simulate(g, strategy, dm);
    (void)sim;
    history.push_back(dm);
    if (static_cast<int>(history.size()) > memory) history.erase(history.begin());
  }
  return now_seconds() - start;
}

double router_pipeline_seconds(serve::RobustRouter& router,
                               const graph::DiGraph& g,
                               const std::vector<traffic::DemandMatrix>& demands) {
  const double start = now_seconds();
  traffic::DemandSequence history;
  for (const auto& dm : demands) {
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = dm;
    request.history = history;
    const serve::RouteDecision decision = router.decide(request);
    (void)decision;
    history.push_back(dm);
    if (static_cast<int>(history.size()) > router.config().memory) {
      history.erase(history.begin());
    }
  }
  return now_seconds() - start;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  util::Rng policy_rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), policy_rng);

  // ---- Phase 1: fault-free overhead ----------------------------------
  util::FaultInjector::instance().disarm();
  const graph::DiGraph abilene = topo::by_name("Abilene");
  core::Scenario scenario;
  scenario.graph = abilene;
  const auto overhead_demands = make_demands(abilene, kOverheadRequests, 11);
  double best_direct = 1e300;
  double best_router = 1e300;
  for (int rep = 0; rep < kOverheadReps; ++rep) {
    best_direct = std::min(
        best_direct,
        direct_pipeline_seconds(policy, scenario, overhead_demands, 5));
    serve::RobustRouter router(&policy, chaos_config());
    // Warm the topology cache outside the timed window: cache-miss setup
    // is a once-per-topology cost, not per-request overhead.
    (void)router_pipeline_seconds(router, abilene, {overhead_demands[0]});
    best_router = std::min(
        best_router,
        router_pipeline_seconds(router, abilene, overhead_demands));
  }
  const double overhead_pct =
      best_direct > 0.0 ? (best_router - best_direct) / best_direct * 100.0
                        : 0.0;
  std::printf("overhead: direct %.3f ms/req, router %.3f ms/req "
              "(%+.2f%%)\n",
              best_direct / kOverheadRequests * 1e3,
              best_router / kOverheadRequests * 1e3, overhead_pct);

  // ---- Phase 2: chaos sweep over link/node failures ------------------
  const char* env_schedule = std::getenv("GDDR_FAULTS");
  const std::string schedule =
      env_schedule != nullptr && env_schedule[0] != '\0' ? env_schedule
                                                         : kDefaultSchedule;
  Tally tally;
  int scenarios_swept = 0;
  for (const char* name : {"AbileneHet", "Nsfnet"}) {
    const graph::DiGraph base = topo::by_name(name);
    std::vector<graph::DiGraph> variants;
    variants.push_back(base);
    for (graph::EdgeId e = 0; e < base.num_edges(); ++e) {
      variants.push_back(base.without_edge(e));
    }
    for (graph::NodeId v = 0; v < base.num_nodes(); ++v) {
      variants.push_back(base.without_node(v));
    }
    serve::RobustRouter router(&policy, chaos_config());
    for (size_t i = 0; i < variants.size(); ++i) {
      // Re-arm per scenario so the one-shot schedule fires in each run.
      util::FaultInjector::instance().arm(schedule);
      const auto demands = make_demands(variants[i], kChaosRequests,
                                        100 + static_cast<std::uint64_t>(i));
      drive(router, variants[i], demands, tally);
      ++scenarios_swept;
    }
  }
  util::FaultInjector::instance().disarm();
  std::printf("chaos: %d scenarios, %ld requests, %ld exceptions, "
              "%ld invalid routings, %ld unroutable entries dropped, "
              "%ld sanitised, %ld deadline-exhausted, recovery %s\n",
              scenarios_swept, tally.requests, tally.exceptions,
              tally.invalid_routings, tally.unroutable_dropped,
              tally.sanitized_requests, tally.deadline_exhausted,
              tally.top_rung_recovered ? "yes" : "NO");
  std::printf("chaos rungs: policy %ld, last-good %ld, inv-capacity %ld, "
              "shortest-path %ld, drop %ld\n",
              tally.rungs[0], tally.rungs[1], tally.rungs[2], tally.rungs[3],
              tally.rungs[4]);

  // ---- Phase 3: breaker trip -> half-open probe -> recovery ----------
  // The backoff outlasts the trip drive's remaining requests even on a
  // sanitizer build, so trips/probes/recoveries are deterministic (the CI
  // smoke diffs them against the committed record).
  serve::RouterConfig breaker_config = chaos_config();
  breaker_config.breaker.failure_threshold = 2;
  breaker_config.breaker.initial_backoff = std::chrono::milliseconds(50);
  serve::RobustRouter breaker_router(&policy, breaker_config);
  const auto cycle_demands = make_demands(abilene, 4, 23);
  Tally trip_tally;
  util::FaultInjector::instance().arm("policy_nan@1+");
  drive(breaker_router, abilene, cycle_demands, trip_tally);
  util::FaultInjector::instance().disarm();
  const bool tripped = breaker_router.breaker().stats().trips >= 1;
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Tally probe_tally;
  drive(breaker_router, abilene, cycle_demands, probe_tally);
  const serve::CircuitBreaker::Stats breaker_stats =
      breaker_router.breaker().stats();
  const bool recovered = breaker_stats.recoveries >= 1 &&
                         probe_tally.rungs[0] > 0;
  std::printf("breaker: %ld trips, %ld probes, %ld recoveries "
              "(tripped %s, recovered %s)\n",
              breaker_stats.trips, breaker_stats.probes,
              breaker_stats.recoveries, tripped ? "yes" : "NO",
              recovered ? "yes" : "NO");

  // ---- Verdict -------------------------------------------------------
  bool ok = true;
  auto check = [&](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  check(tally.exceptions == 0 && trip_tally.exceptions == 0 &&
            probe_tally.exceptions == 0,
        "no exception may escape decide()");
  check(tally.invalid_routings == 0 && trip_tally.invalid_routings == 0 &&
            probe_tally.invalid_routings == 0,
        "every decision must be a valid routing");
  check(tally.top_rung_recovered,
        "chaos runs must recover the learned rung after faults pass");
  check(tripped, "breaker must trip under persistent rung-1 failure");
  check(recovered, "breaker must recover via a half-open probe");
  check(overhead_pct < 15.0, "fault-free overhead must stay small");

  if (json) {
    char buffer[1024];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"schema\": \"gddr.bench_serve_chaos.v1\", "
        "\"overhead_pct\": %.3f, \"scenarios\": %d, \"requests\": %ld, "
        "\"exceptions\": %ld, \"invalid_routings\": %ld, "
        "\"unroutable_dropped\": %ld, \"sanitized_requests\": %ld, "
        "\"deadline_exhausted\": %ld, "
        "\"rungs\": {\"gnn_policy\": %ld, \"last_known_good\": %ld, "
        "\"inverse_capacity\": %ld, \"shortest_path\": %ld, "
        "\"drop_traffic\": %ld}, "
        "\"breaker_trips\": %ld, \"breaker_probes\": %ld, "
        "\"breaker_recoveries\": %ld, \"top_rung_recovered\": %s, "
        "\"ok\": %s}\n",
        overhead_pct, scenarios_swept, tally.requests, tally.exceptions,
        tally.invalid_routings, tally.unroutable_dropped,
        tally.sanitized_requests, tally.deadline_exhausted, tally.rungs[0],
        tally.rungs[1], tally.rungs[2], tally.rungs[3], tally.rungs[4],
        breaker_stats.trips, breaker_stats.probes, breaker_stats.recoveries,
        tally.top_rung_recovered ? "true" : "false", ok ? "true" : "false");
    try {
      util::write_file_atomic("BENCH_serve_chaos.json", buffer);
      std::printf("wrote BENCH_serve_chaos.json\n");
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "could not write BENCH_serve_chaos.json: %s\n",
                   ex.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
