// The benchmark's workloads and the layer measurements of its traced run.
//
// Every workload builds its own inputs from Options::seed, times its
// set-up separately from the measured phase, checks the program's
// outputs and reports through an Outcome.  With Options::trace set, a
// workload instead runs an untraced and a traced pass over the same
// inputs (the ratio is the tracing overhead), then fills the per-layer
// metrics: what the workload exercises is measured in place; layers it
// bypasses are measured by short probes on the workload's own topology
// (see replay_layers, trace_training, trace_serving).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/policies.hpp"
#include "core/scenario.hpp"
#include "graph/digraph.hpp"
#include "rl/ppo.hpp"
#include "trace.hpp"

namespace perfbench {

using LayerMetrics = std::map<std::string, Metric>;

Outcome run_train(const Options& options);
Outcome run_eval(const Options& options);

// Isolated calls into each layer on the scenario's topology and demand:
// cold MCF solves, the serving decision stages, tape backward, Adam and
// a vectorised collection.  Fills the metrics of those layers.
LayerMetrics replay_layers(const gddr::core::Scenario& scenario,
                           gddr::core::GnnPolicy& policy, std::uint64_t seed,
                           int collect_steps_per_env);

// Traced PPO iterations on one worker: the per-iteration layer split
// (env step, GNN forwards, update self time) plus LP-cache hit ratio.
// `untraced_iter_s` receives the untraced median iteration time of the
// same run and `neutral` whether both passes trained bit-identically.
struct TrainTrace {
  LayerMetrics metrics;
  double traced_iter_s = 0.0;
  double untraced_iter_s = 0.0;
  bool neutral = true;
  double coverage = 0.0;
  std::vector<Span> spans;
};
TrainTrace trace_training(const gddr::core::Scenario& scenario,
                          const gddr::rl::PpoConfig& ppo, int iterations,
                          std::uint64_t seed);

// An untraced and a traced pass of open-loop Abilene serving over the
// same stream on fresh engines (0 workers: inline).  Both passes'
// output checks go to `checks`; `neutral` is whether every decision
// matched between the passes.
struct ServeTrace {
  LayerMetrics metrics;
  long requests = 0;
  bool neutral = true;
};
ServeTrace trace_serving(Outcome& checks, std::uint64_t seed, int workers,
                         double rate, double seconds);

// One second of traced serving at 300 req/s on the inline engine: the
// serving-layer metrics for workloads that do not serve.
LayerMetrics trace_serving_probe(Outcome& checks, std::uint64_t seed);

// Fills any per-layer metric `metrics` lacks from `fallback`.
void merge_missing(LayerMetrics& metrics, const LayerMetrics& fallback);

}  // namespace perfbench
