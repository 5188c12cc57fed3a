// perfbench_selftest — checks the benchmark's own machinery:
//   * the nearest-rank percentile and tail rule against a sorted-vector
//     oracle;
//   * due-time latency: a stalled consumer must show up in the latency of
//     the requests that fell due during the stall;
//   * span self times;
//   * the tracing decorators leave training parameters and serving
//     decisions bit-identical to the undecorated run.
// Exit code 0 when every check passes.
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <string>
#include <thread>

#include "core/experiment.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "topo/zoo.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

// Oracle: the smallest sorted value with at least q * n samples at or
// below it, found by scanning.
double oracle_quantile(const std::vector<double>& sorted, double q) {
  const double n = static_cast<double>(sorted.size());
  for (std::size_t k = 1; k <= sorted.size(); ++k) {
    if (static_cast<double>(k) >= q * n - 1e-9) return sorted[k - 1];
  }
  return sorted.back();
}

void test_percentiles() {
  gddr::util::Rng rng(7);
  const double qs[] = {0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0};
  for (int n = 1; n <= 2500; n += (n < 60 ? 1 : 97)) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(std::floor(rng.uniform() * 50.0));
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    for (const double q : qs) {
      expect(quantile(v, q) == oracle_quantile(sorted, q),
             "quantile n=" + std::to_string(n) + " q=" + std::to_string(q));
    }
    // Tail rule: the chosen rung has >= 10 samples ranked beyond it and
    // the next rung up does not.
    const Tail tail = highest_tail(v);
    if (n < 20) {
      expect(tail.label.empty(), "no tail rung below 20 samples");
    } else {
      expect(!tail.label.empty(), "a tail rung from 20 samples");
      expect(tail.beyond >= kTailBeyond, "tail has ten samples beyond");
      expect(tail.value == oracle_quantile(sorted, tail.q), "tail value");
      const double next = tail.q == 0.5 ? 0.9 : tail.q == 0.9 ? 0.99
                          : tail.q == 0.99 ? 0.999 : 0.9999;
      if (tail.q < 0.9999) {
        expect(samples_beyond(next, v.size()) < kTailBeyond,
               "tail is the highest qualifying rung");
      }
    }
  }
  expect(samples_beyond(0.99, 1000) == 10, "p99 of 1000 leaves 10 beyond");
  expect(samples_beyond(0.99, 999) == 9, "p99 of 999 leaves 9 beyond");
}

// A consumer that serves one request at a time and stalls once.
void test_stalled_consumer() {
  constexpr int kRequests = 60;
  constexpr int kStallAt = 10;
  constexpr std::int64_t kPeriodNs = 1'000'000;
  constexpr auto kStall = std::chrono::milliseconds(25);
  std::vector<std::int64_t> offsets;
  for (int i = 0; i < kRequests; ++i) offsets.push_back(i * kPeriodNs);
  OpenLoop loop(offsets);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> queue;
  bool done = false;
  std::thread consumer([&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !queue.empty(); });
        if (queue.empty()) return;
        i = queue.front();
        queue.pop_front();
      }
      if (i == kStallAt) std::this_thread::sleep_for(kStall);
      loop.complete(i);
    }
  });
  loop.run([&](std::size_t i) {
    const std::lock_guard<std::mutex> lock(mu);
    queue.push_back(i);
    cv.notify_one();
  });
  {
    const std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  }
  consumer.join();

  for (int i = 0; i < kRequests; ++i) {
    expect(loop.completed(static_cast<std::size_t>(i)), "every request done");
  }
  // Request kStallAt + k fell due k ms into a 25 ms stall, so it waited
  // at least the rest of the stall, although it was sent on time.
  for (int k = 1; k <= 15; ++k) {
    const auto i = static_cast<std::size_t>(kStallAt + k);
    expect(loop.latency_us(i) >= (25.0 - k) * 1e3 - 500.0,
           "request " + std::to_string(i) + " carries the stall: " +
               std::to_string(loop.latency_us(i)) + " us");
    expect(loop.lag_us(i) < 5000.0, "generator kept to schedule");
  }
  expect(loop.latency_us(kStallAt - 2) < 5000.0, "no stall before it");
}

void test_self_time() {
  Tracer tracer;
  const std::uint64_t root = tracer.record("bench.unit", 0, 100, 0, 1);
  const std::uint64_t wrapper =
      tracer.record("rl.train_iteration", 0, 80, root, 1);
  tracer.record("core.env_step", 10, 40, wrapper, 1);
  tracer.record("gnn.value", 30, 70, wrapper, 1);  // overlaps the env step
  tracer.record("other.work", 90, 120, root, 1);   // clipped to the unit
  tracer.record("gnn.value", 200, 300, 0, 2);      // outside every unit
  const std::vector<Span> spans = tracer.spans();
  const auto summary = summarize(spans);
  expect(std::abs(summary.at("bench.unit").self_s - 10e-9) < 1e-15,
         "unit self time subtracts the union of its children");
  expect(std::abs(summary.at("rl.train_iteration").self_s - 20e-9) < 1e-15,
         "wrapper self time subtracts overlapping children once");
  // Layer calls inside the unit claim 30 + 40 of its 100 ns; the
  // wrapper's and the unit's own self time and the non-layer span do
  // not count, nor does the layer call outside every unit.
  expect(std::abs(coverage(spans) - 0.7) < 1e-12,
         "coverage: " + std::to_string(coverage(spans)));
}

void test_decorators_neutral() {
  gddr::util::Rng rng(3);
  gddr::core::ScenarioParams params = gddr::core::experiment_scenario_params();
  params.train_sequences = 1;
  params.test_sequences = 1;
  params.sequence_length = 12;
  const gddr::core::Scenario scenario =
      gddr::core::make_scenario(gddr::topo::by_name("SmallRing"), params, rng);
  gddr::rl::PpoConfig ppo = gddr::core::routing_ppo_config();
  ppo.rollout_steps = 64;
  ppo.epochs = 2;
  ppo.minibatch_size = 32;
  const TrainTrace t = trace_training(scenario, ppo, 2, 5);
  expect(t.neutral, "traced training bit-identical to untraced");
  expect(t.metrics.count("rl.update_self_s") == 1, "update self time");

  Outcome checks;
  const ServeTrace s = trace_serving(checks, 5, 2, 300.0, 0.5);
  expect(s.neutral, "traced serving decisions bit-identical to untraced");
  expect(s.requests > 50, "serving probe sent requests");
  for (const auto& f : checks.check_failures) expect(false, f);
}

}  // namespace

int main() {
  test_percentiles();
  test_stalled_consumer();
  test_self_time();
  test_decorators_neutral();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
