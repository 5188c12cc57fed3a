// Throughput bench for the concurrent serving engine (serve::Engine).
//
// Two phases:
//  1. Bit-identity — the same request stream is served by a plain
//     RobustRouter and by engines with 1, 2 and 4 workers; every decision
//     (rung, u_max, routed demand) must match the reference exactly.
//     Micro-batch composition differs run to run, so this holds only
//     because the batched GNN forward is bit-identical to the
//     per-request forward — the engine's core correctness claim.
//  2. Scaling — unpaced offered load through 1-worker and 4-worker
//     engines, best of three reps.  On a multi-core host (>= 4 hardware
//     threads) the 4-worker engine must reach >= 2x the single-worker
//     throughput; on smaller hosts the ratio is reported but not
//     asserted (phase 1 is the meaningful check there).
//
// --json writes BENCH_serve_throughput.json
// ("gddr.bench_serve_throughput.v1") for the CI smoke leg.  Exit code 0
// iff every assertion held.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "core/policies.hpp"
#include "obs/metrics.hpp"
#include "serve/engine.hpp"
#include "serve/router.hpp"
#include "topo/zoo.hpp"
#include "traffic/generators.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace {

using namespace gddr;

constexpr int kRequests = 96;
constexpr int kScalingReps = 3;

struct DecisionKey {
  serve::Rung rung;
  double u_max;
  double routed_demand;
};

bool operator==(const DecisionKey& a, const DecisionKey& b) {
  // Exact comparison on purpose: the claim is bit-identity, not
  // tolerance-level agreement.
  return a.rung == b.rung && a.u_max == b.u_max &&
         a.routed_demand == b.routed_demand;
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

serve::EngineConfig engine_config(int workers) {
  serve::EngineConfig config;
  config.workers = workers;
  // Queue sized to the whole stream and no queueing deadline: this bench
  // measures service rate, so nothing may ever be shed.
  config.queue_capacity = kRequests;
  config.max_batch = 8;
  config.queue_deadline = std::chrono::microseconds(0);
  config.router.deadline = std::chrono::seconds(5);  // generous: CI crawls
  return config;
}

// Serves `demands` through a fresh engine, returning per-request decision
// keys in submission order plus the wall-clock service rate.
std::vector<DecisionKey> run_engine(core::GnnPolicy& policy,
                                    const graph::DiGraph& g,
                                    const std::vector<traffic::DemandMatrix>&
                                        demands,
                                    int workers, long* shed_out,
                                    double* rps_out) {
  serve::Engine engine(&policy, engine_config(workers));
  std::vector<std::future<serve::ServeOutcome>> futures;
  futures.reserve(demands.size());
  traffic::DemandSequence history;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& dm : demands) {
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = dm;
    request.history = history;
    futures.push_back(engine.submit(std::move(request)));
    history.push_back(dm);
    if (static_cast<int>(history.size()) > engine.config().router.memory) {
      history.erase(history.begin());
    }
  }
  engine.shutdown();
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  std::vector<DecisionKey> keys;
  keys.reserve(futures.size());
  long shed = 0;
  for (auto& future : futures) {
    const serve::ServeOutcome outcome = future.get();
    if (outcome.shed) ++shed;
    keys.push_back({outcome.decision.rung, outcome.decision.sim.u_max,
                    outcome.decision.routed_demand});
  }
  if (shed_out != nullptr) *shed_out = shed;
  if (rps_out != nullptr) {
    *rps_out = elapsed > 0.0
                   ? static_cast<double>(demands.size()) / elapsed
                   : 0.0;
  }
  return keys;
}

// The single-router baseline the engine must reproduce exactly.
std::vector<DecisionKey> run_reference(core::GnnPolicy& policy,
                                       const graph::DiGraph& g,
                                       const std::vector<traffic::DemandMatrix>&
                                           demands) {
  serve::RobustRouter router(&policy, engine_config(1).router);
  std::vector<DecisionKey> keys;
  keys.reserve(demands.size());
  traffic::DemandSequence history;
  for (const auto& dm : demands) {
    serve::RouteRequest request;
    request.graph = &g;
    request.demand = dm;
    request.history = history;
    const serve::RouteDecision decision = router.decide(request);
    keys.push_back({decision.rung, decision.sim.u_max,
                    decision.routed_demand});
    history.push_back(dm);
    if (static_cast<int>(history.size()) > router.config().memory) {
      history.erase(history.begin());
    }
  }
  return keys;
}

void define_latency_buckets() {
  obs::Registry::instance().define_histogram(
      "serve/engine/latency_us",
      {50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0, 20000.0,
       50000.0, 100000.0, 200000.0, 500000.0, 1000000.0, 5000000.0});
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json = true;
  }

  const unsigned cores = std::thread::hardware_concurrency();
  util::Rng policy_rng(7);
  core::GnnPolicy policy(core::experiment_gnn_config(5), policy_rng);
  const graph::DiGraph abilene = topo::by_name("Abilene");
  const auto demands = make_demands(abilene, kRequests, 11);

  // ---- Phase 1: decisions are worker-count invariant -----------------
  const std::vector<DecisionKey> reference =
      run_reference(policy, abilene, demands);
  bool bit_identical = true;
  long total_shed = 0;
  for (const int workers : {1, 2, 4}) {
    long shed = 0;
    const std::vector<DecisionKey> keys =
        run_engine(policy, abilene, demands, workers, &shed, nullptr);
    total_shed += shed;
    const bool match = keys == reference;
    if (!match) bit_identical = false;
    std::printf("identity: %d worker(s) vs plain router: %s (%ld shed)\n",
                workers, match ? "bit-identical" : "MISMATCH", shed);
  }

  // ---- Phase 2: throughput scaling -----------------------------------
  obs::Registry& registry = obs::Registry::instance();
  registry.enable();
  double best_1w = 0.0;
  double best_4w = 0.0;
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double p99 = std::numeric_limits<double>::quiet_NaN();
  for (int rep = 0; rep < kScalingReps; ++rep) {
    double rps = 0.0;
    long shed = 0;
    run_engine(policy, abilene, demands, 1, &shed, &rps);
    total_shed += shed;
    best_1w = std::max(best_1w, rps);

    // Reset so the latency quantiles describe 4-worker serving only.
    registry.reset();
    define_latency_buckets();
    run_engine(policy, abilene, demands, 4, &shed, &rps);
    total_shed += shed;
    if (rps > best_4w) {
      best_4w = rps;
      const obs::Snapshot snap = registry.snapshot();
      for (const auto& [name, h] : snap.histograms) {
        if (name == "serve/engine/latency_us") {
          p50 = obs::histogram_quantile(h, 0.5);
          p99 = obs::histogram_quantile(h, 0.99);
        }
      }
    }
  }
  const double speedup = best_1w > 0.0 ? best_4w / best_1w : 0.0;
  const bool multi_core = cores >= 4;
  std::printf("scaling: 1 worker %.1f req/s, 4 workers %.1f req/s "
              "(%.2fx, %u hardware threads)\n",
              best_1w, best_4w, speedup, cores);
  std::printf("latency @4 workers: p50 %.1f us, p99 %.1f us\n", p50, p99);

  // ---- Verdict -------------------------------------------------------
  bool ok = true;
  auto check = [&](bool condition, const char* what) {
    if (!condition) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    }
  };
  check(bit_identical,
        "engine decisions must be bit-identical to the plain router at "
        "every worker count");
  check(total_shed == 0, "an uncontended run must shed nothing");
  check(!std::isnan(p99), "latency histogram must be populated");
  if (multi_core) {
    check(speedup >= 2.0,
          "4 workers must reach >= 2x single-worker throughput on a "
          "multi-core host");
  } else {
    std::printf("scaling assertion skipped: %u hardware thread(s)\n", cores);
  }

  if (json) {
    char buffer[640];
    std::snprintf(
        buffer, sizeof(buffer),
        "{\"schema\": \"gddr.bench_serve_throughput.v1\", "
        "\"requests\": %d, \"hardware_threads\": %u, "
        "\"compiler\": \"%s\", "
        "\"bit_identical\": %s, \"shed\": %ld, "
        "\"workers_1_rps\": %.1f, \"workers_4_rps\": %.1f, "
        "\"speedup\": %.2f, \"speedup_asserted\": %s, "
        "\"p50_latency_us\": %.1f, \"p99_latency_us\": %.1f, "
        "\"ok\": %s}\n",
        kRequests, cores, GDDR_COMPILER, bit_identical ? "true" : "false",
        total_shed, best_1w, best_4w, speedup, multi_core ? "true" : "false",
        p50, p99, ok ? "true" : "false");
    try {
      util::write_file_atomic("BENCH_serve_throughput.json", buffer);
      std::printf("wrote BENCH_serve_throughput.json\n");
    } catch (const std::exception& ex) {
      std::fprintf(stderr, "could not write BENCH_serve_throughput.json: %s\n",
                   ex.what());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
