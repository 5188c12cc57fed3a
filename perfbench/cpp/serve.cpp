// The serving probe of the traced run: open-loop Poisson traffic on
// Abilene into serve::Engine, once over the bare policy and once behind
// TracedPolicy, over the same request stream.
//
// With 0 workers the engine runs inline: the generator thread serves
// each request right after submitting it, so a request's latency is the
// per-decision pipeline plus the queueing of an M/G/1 server, free of
// cross-thread wake-ups.  A request's latency runs from its due time to
// the moment its future is resolved, which the engine's decision
// observer reports on the serving thread right after resolving it; the
// observer identifies the request by the address of its demand buffer,
// which the engine moves, never copies, from submission to the observer
// call.
//
// Both passes check the engine's outputs: offered == served + shed,
// every served routing passes routing::validate, and a sample of rung-1
// decisions is bit-identical to a single-threaded RobustRouter replay.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <thread>

#include "core/experiment.hpp"
#include "openloop.hpp"
#include "routing/routing.hpp"
#include "serve/engine.hpp"
#include "stats.hpp"
#include "topo/zoo.hpp"
#include "traced.hpp"
#include "traffic/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace gddr;

// The probe's offered rate keeps its single inline server ~10% busy, so
// a request rarely waits for another.
constexpr double kProbeRate = 300.0;
constexpr int kProbeWorkers = 0;  // inline: the generator thread serves
constexpr double kProbeSeconds = 1.0;
constexpr int kWarmupRequests = 64;
constexpr std::size_t kReplaySample = 48;

traffic::DemandMatrix random_demand(int nodes, util::Rng& rng) {
  traffic::BimodalParams params;
  params.pair_density = 0.3;
  return traffic::bimodal_matrix(nodes, params, rng);
}

// One open-loop phase's pre-generated inputs, all on one topology.
struct Stream {
  std::vector<std::int64_t> offsets;
  std::vector<traffic::DemandMatrix> demand;
  // Ids of the earlier requests that form each request's history, oldest
  // first.
  std::vector<std::vector<std::size_t>> history;
};

Stream make_stream(const graph::DiGraph& g, std::vector<std::int64_t> offsets,
                   util::Rng& rng, int memory) {
  Stream s;
  s.offsets = std::move(offsets);
  std::vector<std::size_t> recent;
  for (std::size_t i = 0; i < s.offsets.size(); ++i) {
    s.demand.push_back(random_demand(g.num_nodes(), rng));
    s.history.push_back(recent);
    recent.push_back(i);
    if (static_cast<int>(recent.size()) > memory) recent.erase(recent.begin());
  }
  return s;
}

serve::RouteRequest build_request(const graph::DiGraph& g, const Stream& s,
                                  std::size_t i) {
  serve::RouteRequest r;
  r.graph = &g;
  r.demand = s.demand[i];
  r.history.reserve(s.history[i].size());
  for (const std::size_t h : s.history[i]) r.history.push_back(s.demand[h]);
  return r;
}

// Routes decision-observer calls to the open loop of the running phase.
class Completion {
 public:
  void arm(OpenLoop* loop, const std::vector<serve::RouteRequest>& requests) {
    auto state = std::make_unique<State>();
    state->loop = loop;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      state->index.emplace_back(key(requests[i]), i);
    }
    std::sort(state->index.begin(), state->index.end());
    current_.store(state.get(), std::memory_order_release);
    states_.push_back(std::move(state));
  }
  void disarm() { current_.store(nullptr, std::memory_order_release); }

  void on_decision(const serve::RouteRequest& request) {
    const State* state = current_.load(std::memory_order_acquire);
    if (state == nullptr) return;
    const std::uintptr_t k = key(request);
    const auto it = std::lower_bound(state->index.begin(), state->index.end(),
                                     std::make_pair(k, std::size_t{0}));
    if (it != state->index.end() && it->first == k) {
      state->loop->complete(it->second);
    }
  }

 private:
  static std::uintptr_t key(const serve::RouteRequest& request) {
    return reinterpret_cast<std::uintptr_t>(request.demand.raw().data());
  }
  struct State {
    OpenLoop* loop = nullptr;
    std::vector<std::pair<std::uintptr_t, std::size_t>> index;
  };
  std::atomic<const State*> current_{nullptr};
  // Every armed state stays alive until the Completion is destroyed
  // (after the engine), so a late observer never reads freed memory.
  std::vector<std::unique_ptr<State>> states_;
};

// What a phase keeps of one request once its future is harvested: the
// routing itself is dropped once validated and hashed, unless the
// request is sampled for replay.
struct Served {
  bool shed = true;
  serve::Rung rung = serve::Rung::kDropTraffic;
  double router_s = 0.0;  // RouteDecision::latency_s
  std::uint64_t routing_hash = 0;
};

struct Phase {
  std::unique_ptr<OpenLoop> loop;
  std::vector<Served> served;
  std::map<std::size_t, serve::RouteDecision> kept;  // sampled for replay
  long invalid = 0;  // served routings failing routing::validate
  serve::EngineStats stats;  // this phase only
  long topo_hits = 0;
  long topo_misses = 0;
};

std::uint64_t routing_hash(const routing::Routing& r) {
  std::uint64_t h = 1469598103934665603ULL;
  for (int s = 0; s < r.num_nodes(); ++s) {
    for (int t = 0; t < r.num_nodes(); ++t) {
      for (const double v : r.flow_ratios(s, t)) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        h = (h ^ bits) * 1099511628211ULL;
      }
    }
  }
  return h;
}

// Sends the stream open-loop.  Every served routing is validated and
// hashed as it is harvested, and every k-th rung-1 decision is kept for
// the replay check.
Phase run_phase(serve::Engine& engine, Completion& completion,
                const graph::DiGraph& g, const Stream& s) {
  Phase phase;
  phase.loop = std::make_unique<OpenLoop>(s.offsets);
  const std::size_t n = s.offsets.size();
  const std::size_t keep_every = std::max<std::size_t>(1, n / kReplaySample);
  phase.served.resize(n);
  // Demand copies are made up front so the observer can index them by
  // buffer address; histories are built at send time to bound memory.
  std::vector<serve::RouteRequest> prepared(n);
  for (std::size_t i = 0; i < n; ++i) {
    prepared[i].graph = &g;
    prepared[i].demand = s.demand[i];
  }
  completion.arm(phase.loop.get(), prepared);
  const serve::EngineStats before = engine.stats();
  const long hits_before = engine.topology_cache().hits();
  const long misses_before = engine.topology_cache().misses();

  const bool inline_engine = engine.config().workers == 0;
  std::vector<std::future<serve::ServeOutcome>> futures(n);
  std::size_t sent = 0;
  std::size_t harvested = 0;
  auto harvest = [&](std::size_t i) {
    serve::ServeOutcome o = futures[i].get();
    Served& r = phase.served[i];
    r.shed = o.shed;
    if (o.shed) return;
    r.rung = o.decision.rung;
    r.router_s = o.decision.latency_s;
    r.routing_hash = routing_hash(o.decision.routing);
    std::string error;
    if (!routing::validate(g, o.decision.routing, s.demand[i], &error)) {
      ++phase.invalid;
    }
    if (i % keep_every == 0 && r.rung == serve::Rung::kGnnPolicy) {
      phase.kept.emplace(i, std::move(o.decision));
    }
  };
  // Harvests the oldest request if it is done; called in the generator's
  // slack, so finished routings are freed as they come in.
  auto harvest_next = [&] {
    if (harvested >= sent || futures[harvested].wait_for(
                                 std::chrono::seconds(0)) !=
                                 std::future_status::ready) {
      return false;
    }
    harvest(harvested++);
    return true;
  };
  phase.loop->run(
      [&](std::size_t i) {
        serve::RouteRequest& r = prepared[i];
        r.history.reserve(s.history[i].size());
        for (const std::size_t h : s.history[i]) {
          r.history.push_back(s.demand[h]);
        }
        futures[i] = engine.submit(std::move(r));
        if (inline_engine) engine.poll();
        sent = i + 1;
      },
      harvest_next);
  while (harvested < n) harvest(harvested++);
  // The observer runs just after a future resolves; wait for the last
  // ones before reading completion times.
  const Clock::time_point wait_start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    while (!phase.served[i].shed && !phase.loop->completed(i) &&
           seconds_since(wait_start) < 5.0) {
      std::this_thread::yield();
    }
  }
  completion.disarm();

  const serve::EngineStats after = engine.stats();
  phase.stats.offered = after.offered - before.offered;
  phase.stats.served = after.served - before.served;
  phase.stats.shed = after.shed - before.shed;
  phase.stats.batches = after.batches - before.batches;
  phase.topo_hits = engine.topology_cache().hits() - hits_before;
  phase.topo_misses = engine.topology_cache().misses() - misses_before;
  return phase;
}

std::vector<double> lags_us(const Phase& p) {
  std::vector<double> out;
  for (std::size_t i = 0; i < p.served.size(); ++i) {
    out.push_back(p.loop->lag_us(i));
  }
  return out;
}

bool same_routing(const routing::Routing& a, const routing::Routing& b) {
  return a.num_nodes() == b.num_nodes() && a.num_edges() == b.num_edges() &&
         routing_hash(a) == routing_hash(b);
}

// Submits one request and waits for its outcome, serving it on this
// thread when the engine is inline.
serve::ServeOutcome serve_now(serve::Engine& engine,
                              serve::RouteRequest request) {
  std::future<serve::ServeOutcome> future = engine.submit(std::move(request));
  if (engine.config().workers == 0) engine.poll();
  return future.get();
}

// Everything a serving pass sets up before its first timed request.
struct Rig {
  graph::DiGraph topology;
  std::unique_ptr<core::GnnPolicy> policy;
  std::unique_ptr<TracedPolicy> traced;  // set only for a traced engine
  std::unique_ptr<Completion> completion;
  std::unique_ptr<serve::Engine> engine;  // destroyed before completion
  Stream stream;

  Rig() = default;
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    if (engine) engine->shutdown();
  }
};

// Builds the rig: seeded policy, engine with its observer, the Poisson
// stream, and a closed-loop warm-up that fills the topology cache and
// the tape arenas.
std::unique_ptr<Rig> build_rig(std::uint64_t seed, int workers, double rate,
                               double seconds, bool traced) {
  auto rig = std::make_unique<Rig>();
  rig->topology = topo::abilene();
  util::Rng policy_rng(seed * 7919 + 17);
  rig->policy = std::make_unique<core::GnnPolicy>(
      core::experiment_gnn_config(5), policy_rng);
  rl::Policy* served = rig->policy.get();
  if (traced) {
    rig->traced = std::make_unique<TracedPolicy>(*rig->policy);
    served = rig->traced.get();
  }
  rig->completion = std::make_unique<Completion>();
  serve::EngineConfig cfg;
  cfg.workers = workers;
  rig->engine = std::make_unique<serve::Engine>(served, cfg);
  Completion* completion = rig->completion.get();
  rig->engine->set_decision_observer(
      [completion](const serve::RouteRequest& r, const serve::DecisionRecord&) {
        completion->on_decision(r);
      });

  util::Rng rng(seed);
  rig->stream = make_stream(rig->topology, poisson_schedule(rate, seconds, rng),
                            rng, cfg.router.memory);

  util::Rng warm_rng(seed + 99);
  const Stream warm =
      make_stream(rig->topology, std::vector<std::int64_t>(kWarmupRequests, 0),
                  warm_rng, cfg.router.memory);
  for (std::size_t i = 0; i < warm.offsets.size(); ++i) {
    serve_now(*rig->engine, build_request(rig->topology, warm, i));
  }
  return rig;
}

// The engine conserves requests, served routings satisfy the §IV-A
// contract (validated as they are harvested), and the sampled rung-1
// decisions match a single-threaded replay over the bare policy bit for
// bit.  `pass` names the phase in the check failures.
void check_phase(Outcome& out, const Rig& rig, const Phase& p,
                 const std::string& pass) {
  const serve::EngineStats total = rig.engine->stats();
  out.check(total.offered == total.served + total.shed,
            pass + ": engine conservation offered == served + shed");
  out.check(p.stats.offered == static_cast<long>(p.served.size()),
            pass + ": every sent request was offered");
  out.check(p.invalid == 0, pass + ": served routings failing "
                                   "routing::validate: " +
                                std::to_string(p.invalid));
  serve::RobustRouter replay(rig.policy.get(), rig.engine->config().router);
  long mismatched = 0;
  for (const auto& [i, served] : p.kept) {
    const serve::RouteDecision d =
        replay.decide(build_request(rig.topology, rig.stream, i));
    if (d.rung != served.rung || !same_routing(d.routing, served.routing) ||
        std::memcmp(&d.sim.u_max, &served.sim.u_max, sizeof(double)) != 0) {
      ++mismatched;
    }
  }
  out.check(!p.kept.empty(), pass + ": no rung-1 decision sampled for replay");
  out.check(mismatched == 0, pass + ": rung-1 decisions differing from a "
                                    "single-threaded replay: " +
                                 std::to_string(mismatched));
}

// Due-time latency split into queue wait and router time, per request,
// recorded as spans so the traced run can derive self times.
void record_request_spans(Tracer& tracer, const Phase& p) {
  for (std::size_t i = 0; i < p.served.size(); ++i) {
    if (p.served[i].shed || !p.loop->completed(i)) continue;
    const std::int64_t due = p.loop->due_ns(i);
    const std::int64_t ready = p.loop->ready_ns(i);
    const auto router_ns =
        static_cast<std::int64_t>(p.served[i].router_s * 1e9);
    const std::int64_t router_start = std::max(due, ready - router_ns);
    const std::uint64_t request = i + 1;
    const std::uint64_t root =
        tracer.record("bench.request", due, ready, 0, request);
    tracer.record("serve.queue_wait", due, router_start, root, request);
    tracer.record("serve.router", router_start, ready, root, request);
  }
}

}  // namespace

ServeTrace trace_serving(Outcome& checks, std::uint64_t seed, int workers,
                         double rate, double seconds) {
  ServeTrace t;
  std::unique_ptr<Rig> plain = build_rig(seed, workers, rate, seconds, false);
  const Phase base =
      run_phase(*plain->engine, *plain->completion, plain->topology,
                plain->stream);
  plain->engine->shutdown();
  check_phase(checks, *plain, base, "untraced serving");

  std::unique_ptr<Rig> rig = build_rig(seed, workers, rate, seconds, true);
  Tracer tracer;
  Phase p;
  {
    const ActiveTracer active(tracer);
    p = run_phase(*rig->engine, *rig->completion, rig->topology, rig->stream);
    rig->engine->shutdown();
  }
  check_phase(checks, *rig, p, "traced serving");
  record_request_spans(tracer, p);
  t.requests = static_cast<long>(p.served.size());

  for (std::size_t i = 0; i < p.served.size(); ++i) {
    const Served& a = base.served[i];
    const Served& b = p.served[i];
    if (a.shed || b.shed) continue;
    if (a.rung != b.rung || a.routing_hash != b.routing_hash) t.neutral = false;
  }
  checks.check(t.neutral, "traced serving decisions differ from untraced");

  const auto summary = summarize(tracer.spans());
  auto span_us = [&](const char* name, double q) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0.0 : quantile(it->second.durations_s, q) * 1e6;
  };
  auto span_count = [&](const char* name) {
    const auto it = summary.find(name);
    return it == summary.end() ? 0L : it->second.count;
  };

  LayerMetrics& m = t.metrics;
  m["serve.queue_wait_us.p50"] = {span_us("serve.queue_wait", 0.5), "us"};
  m["serve.queue_wait_us.p99"] = {span_us("serve.queue_wait", 0.99), "us"};
  m["serve.router_us.p50"] = {span_us("serve.router", 0.5), "us"};
  m["serve.router_us.p99"] = {span_us("serve.router", 0.99), "us"};
  const double served = static_cast<double>(p.stats.served);
  m["serve.batch_size_mean"] = {
      p.stats.batches > 0 ? served / static_cast<double>(p.stats.batches) : 0.0,
      "req/batch"};
  long rung1 = 0;
  for (const Served& r : p.served) {
    if (!r.shed && r.rung == serve::Rung::kGnnPolicy) ++rung1;
  }
  m["serve.rung1_frac"] = {served > 0 ? rung1 / served : 0.0, "ratio"};
  m["serve.shed"] = {static_cast<double>(p.stats.shed), "count"};
  const double lookups = static_cast<double>(p.topo_hits + p.topo_misses);
  m["serve.topo_hit_ratio"] = {lookups > 0 ? p.topo_hits / lookups : 0.0,
                               "ratio"};
  m["serve.topo_lookups"] = {lookups, "count"};
  m["serve.gen_lag_us.p99"] = {quantile(lags_us(p), 0.99), "us"};
  if (span_count("gnn.action_mean") > 0) {
    m["gnn.action_mean_us"] = {span_us("gnn.action_mean", 0.5), "us"};
  }
  if (span_count("gnn.action_means") > 0) {
    m["gnn.action_means_us"] = {span_us("gnn.action_means", 0.5), "us"};
    m["gnn.action_means_rows"] = {
        static_cast<double>(rig->traced->batched_rows()) /
            static_cast<double>(span_count("gnn.action_means")),
        "rows/call"};
  }
  if (span_count("gnn.value") > 0) {
    m["gnn.value_us"] = {span_us("gnn.value", 0.5), "us"};
  }
  m["gnn.value_calls_per_decision"] = {
      served > 0 ? span_count("gnn.value") / served : 0.0, "calls/decision"};
  m["gnn.forwards_per_iter"] = {
      served > 0 ? (span_count("gnn.action_mean") +
                    span_count("gnn.action_means") + span_count("gnn.value")) /
                       served
                 : 0.0,
      "calls/unit"};
  return t;
}

LayerMetrics trace_serving_probe(Outcome& checks, std::uint64_t seed) {
  return trace_serving(checks, seed, kProbeWorkers, kProbeRate, kProbeSeconds)
      .metrics;
}

}  // namespace perfbench
