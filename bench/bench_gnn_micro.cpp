// Microbenchmark: policy forward/backward cost, GNN vs MLP.
//
// Supports the paper's "no learning-time overhead" claim (§VIII, Figure 7
// discussion) with direct per-inference measurements, and quantifies the
// parameter-count scaling argument of §IX: the GNN's parameter count is
// topology-independent while the MLP's grows with |V|^2 and |E|.
//
// The tape is hoisted out of the timing loop and reset per iteration, so
// the numbers measure the steady state the trainer actually runs in: the
// workspace arena recycles every value/grad buffer and iterations perform
// no heap allocation.
//
// Two modes:
//   (default)  Google-Benchmark suite.
//   --json     CI smoke: asserts both vector widths of the optimized
//              kernels reproduce the naive reference exactly (== on every
//              element; the 8-lane width on AVX2 hosts only), asserts the
//              arena reaches a steady state with zero new allocations,
//              times the forward+backward hot loop, and writes
//              BENCH_gnn_micro.json stamped with the kernel width the
//              dispatcher chose, the CMake build type and the sanitizer
//              list.  The record of reference comes from a Release build
//              without sanitizers.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "core/policies.hpp"
#include "core/routing_env.hpp"
#include "core/scenario.hpp"
#include "nn/kernels.hpp"
#include "nn/optimizer.hpp"
#include "nn/tape.hpp"
#include "topo/zoo.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

#ifndef GDDR_BUILD_TYPE
#define GDDR_BUILD_TYPE "unknown"
#endif
#ifndef GDDR_SANITIZE_LIST
#define GDDR_SANITIZE_LIST ""
#endif

namespace {

using namespace gddr;
using namespace gddr::core;

Scenario tiny_scenario(const std::string& topology) {
  util::Rng rng(1);
  ScenarioParams p;
  p.sequence_length = 12;
  p.cycle_length = 4;
  p.train_sequences = 1;
  p.test_sequences = 1;
  return make_scenario(topo::by_name(topology), p, rng);
}

void BM_GnnForward(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    benchmark::DoNotOptimize(policy.action_mean(tape, obs));
  }
  state.SetLabel(topology + " params=" +
                 std::to_string(policy.num_parameters()));
}

void BM_GnnForwardBackward(benchmark::State& state,
                           const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto params = policy.parameters();
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    const auto mean = policy.action_mean(tape, obs);
    const auto loss = tape.mean_all(tape.square(mean));
    nn::zero_grads(params);
    tape.backward(loss);
  }
  state.SetLabel(topology);
}

void BM_MlpForward(benchmark::State& state, const std::string& topology) {
  const Scenario scenario = tiny_scenario(topology);
  util::Rng prng(2);
  const int n = scenario.graph.num_nodes();
  MlpPolicy policy(5 * n * n, scenario.graph.num_edges(), MlpPolicyConfig{},
                   prng);
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);
  nn::Tape tape;
  for (auto _ : state) {
    tape.reset();
    benchmark::DoNotOptimize(policy.action_mean(tape, obs));
  }
  state.SetLabel(topology + " params=" +
                 std::to_string(policy.num_parameters()));
}

BENCHMARK_CAPTURE(BM_GnnForward, small, std::string("SmallRing"));
BENCHMARK_CAPTURE(BM_GnnForward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_GnnForward, geant, std::string("GeantLike"));
BENCHMARK_CAPTURE(BM_GnnForwardBackward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_GnnForwardBackward, geant, std::string("GeantLike"));
BENCHMARK_CAPTURE(BM_MlpForward, small, std::string("SmallRing"));
BENCHMARK_CAPTURE(BM_MlpForward, abilene, std::string("Abilene"));
BENCHMARK_CAPTURE(BM_MlpForward, geant, std::string("GeantLike"));

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One build of the three matmul kernels (nn::kernels::w4 or w8).
struct KernelWidth {
  int lanes;
  void (*nn)(int, int, int, const float*, const float*, float*);
  void (*nt_acc)(int, int, int, const float*, const float*, float*);
  void (*tn_acc)(int, int, int, const float*, const float*, float*);
};

// Checks every element of both kernel widths against the naive reference
// (exact ==).  The 8-lane build runs only where the dispatcher would pick
// it (AVX2 hosts).  Returns false and prints the first offending width
// and shape on mismatch.
bool kernels_match_reference() {
  const KernelWidth widths[] = {
      {4, nn::kernels::w4::matmul_nn, nn::kernels::w4::matmul_nt_acc,
       nn::kernels::w4::matmul_tn_acc},
      {8, nn::kernels::w8::matmul_nn, nn::kernels::w8::matmul_nt_acc,
       nn::kernels::w8::matmul_tn_acc}};
  // Shapes chosen to cover the GNN's hot sizes plus tails: odd dims,
  // k not a multiple of the unroll, single rows/cols.
  const int shapes[][3] = {{74, 66, 32}, {74, 32, 1},  {24, 66, 32},
                           {200, 64, 64}, {1, 32, 32}, {7, 5, 3},
                           {33, 17, 9},   {1, 1, 1}};
  for (const auto& s : shapes) {
    const int m = s[0];
    const int k = s[1];
    const int n = s[2];
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    std::vector<float> g(static_cast<std::size_t>(m) * n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = 0.01F * static_cast<float>(i % 17) - 0.05F;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = 0.02F * static_cast<float>(i % 13) - 0.1F;
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] = 0.03F * static_cast<float>(i % 11) - 0.15F;
    }
    std::vector<float> c_ref(static_cast<std::size_t>(m) * n);
    nn::kernels::ref::matmul_nn(m, k, n, a.data(), b.data(), c_ref.data());
    std::vector<float> gx_ref(static_cast<std::size_t>(m) * k, 0.25F);
    nn::kernels::ref::matmul_nt_acc(m, n, k, g.data(), b.data(),
                                    gx_ref.data());
    std::vector<float> gw_ref(static_cast<std::size_t>(k) * n, 0.25F);
    nn::kernels::ref::matmul_tn_acc(m, k, n, a.data(), g.data(),
                                    gw_ref.data());
    for (const KernelWidth& w : widths) {
      if (w.lanes > nn::kernels::matmul_width()) continue;
      std::vector<float> c(static_cast<std::size_t>(m) * n);
      w.nn(m, k, n, a.data(), b.data(), c.data());
      std::vector<float> gx(static_cast<std::size_t>(m) * k, 0.25F);
      w.nt_acc(m, n, k, g.data(), b.data(), gx.data());
      std::vector<float> gw(static_cast<std::size_t>(k) * n, 0.25F);
      w.tn_acc(m, k, n, a.data(), g.data(), gw.data());
      if (c != c_ref || gx != gx_ref || gw != gw_ref) {
        std::fprintf(stderr,
                     "FAIL: %d-lane kernel mismatch vs reference at "
                     "%dx%dx%d\n",
                     w.lanes, m, k, n);
        return false;
      }
    }
  }
  return true;
}

int run_json_smoke() {
  std::printf("=== GNN micro smoke: kernel correctness + steady state ===\n");

  const bool kernels_ok = kernels_match_reference();
  const int kernel_width = nn::kernels::matmul_width();
  std::printf("optimized kernels (4-lane%s) == naive reference: %s\n",
              kernel_width == 8 ? " and 8-lane" : "",
              kernels_ok ? "yes" : "NO — MISMATCH");

  const Scenario scenario = tiny_scenario("GeantLike");
  util::Rng prng(2);
  GnnPolicyConfig cfg;
  cfg.memory = 5;
  GnnPolicy policy(cfg, prng);
  const auto params = policy.parameters();
  const auto obs = RoutingEnv::build_observation(
      scenario, scenario.train_sequences[0], 5, 5);

  nn::Tape tape;
  const auto step = [&] {
    tape.reset();
    const auto mean = policy.action_mean(tape, obs);
    const auto loss = tape.mean_all(tape.square(mean));
    nn::zero_grads(params);
    tape.backward(loss);
  };

  // Warm up until the arena has seen the full shape population, then
  // require that further iterations allocate nothing new.
  constexpr int kWarmup = 10;
  constexpr int kIters = 100;
  for (int i = 0; i < kWarmup; ++i) step();
  const std::uint64_t misses_before = tape.arena_misses();
  const std::uint64_t reuse_before = tape.arena_reuse();
  const double start = now_seconds();
  for (int i = 0; i < kIters; ++i) step();
  const double seconds = now_seconds() - start;
  const std::uint64_t misses_delta = tape.arena_misses() - misses_before;
  const std::uint64_t reuse_delta = tape.arena_reuse() - reuse_before;
  const double us_per_iter = seconds / kIters * 1e6;

  const bool arena_ok = misses_delta == 0;
  std::printf("forward+backward (GeantLike): %.1f us/iter (%s build)\n",
              us_per_iter, GDDR_BUILD_TYPE);
  std::printf("arena steady state: %llu new allocations over %d iters "
              "(%llu buffer reuses), bytes=%llu: %s\n",
              static_cast<unsigned long long>(misses_delta), kIters,
              static_cast<unsigned long long>(reuse_delta),
              static_cast<unsigned long long>(tape.arena_bytes()),
              arena_ok ? "ok" : "NO — ALLOCATING PER ITERATION");

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"kernels_match_reference\": %s,\n"
      "  \"kernel_width\": %d,\n"
      "  \"forward_backward_us\": %.3f,\n"
      "  \"forward_backward_iters\": %d,\n"
      "  \"topology\": \"GeantLike\",\n"
      "  \"build_type\": \"%s\",\n"
      "  \"sanitizer\": \"%s\",\n"
      "  \"hardware_threads\": %u,\n"
      "  \"compiler\": \"%s\",\n"
      "  \"arena_steady_state_misses\": %llu,\n"
      "  \"arena_reuse_per_100_iters\": %llu,\n"
      "  \"arena_bytes\": %llu\n"
      "}\n",
      kernels_ok ? "true" : "false", kernel_width, us_per_iter, kIters,
      GDDR_BUILD_TYPE,
      GDDR_SANITIZE_LIST[0] != '\0' ? GDDR_SANITIZE_LIST : "none",
      std::thread::hardware_concurrency(), GDDR_COMPILER,
      static_cast<unsigned long long>(misses_delta),
      static_cast<unsigned long long>(reuse_delta),
      static_cast<unsigned long long>(tape.arena_bytes()));
  try {
    util::write_file_atomic("BENCH_gnn_micro.json", json);
    std::printf("wrote BENCH_gnn_micro.json\n");
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "could not write BENCH_gnn_micro.json: %s\n",
                 ex.what());
  }

  const bool ok = kernels_ok && arena_ok;
  if (!ok) std::fprintf(stderr, "FAIL: gnn micro smoke\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) return run_json_smoke();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
