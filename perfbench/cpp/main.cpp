// perfbench — the GDDR benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--nproc N] [--out-dir DIR] [--git-sha SHA]
//             [--source-digest HEX]
//
// Workloads: train_abilene, eval_geant.
// Prints one record line (every figure the run produced, stamped with
// host and build) and then, as the last line, the result object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones.  Exit code 0 once the result line is printed, whether
// or not every output check passed ("correct" says which); 1 when the
// workload failed before producing a result, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GDDR_CHECK
#define PERFBENCH_GDDR_CHECK 0
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif

namespace perfbench {
namespace {

// Every per-layer metric with its unit, in report order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_units() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"serve.queue_wait_us.p50", "us"},
      {"serve.queue_wait_us.p99", "us"},
      {"serve.router_us.p50", "us"},
      {"serve.router_us.p99", "us"},
      {"serve.batch_size_mean", "req/batch"},
      {"serve.rung1_frac", "ratio"},
      {"serve.shed", "count"},
      {"serve.topo_hit_ratio", "ratio"},
      {"serve.topo_lookups", "count"},
      {"serve.topo_miss_us", "us"},
      {"serve.sanitize_us", "us"},
      {"serve.gen_lag_us.p99", "us"},
      {"core.env_step_us", "us"},
      {"core.observation_us", "us"},
      {"gnn.action_mean_us", "us"},
      {"gnn.action_means_us", "us"},
      {"gnn.action_means_rows", "rows/call"},
      {"gnn.value_us", "us"},
      {"gnn.value_calls_per_decision", "calls/decision"},
      {"gnn.forwards_per_iter", "calls/unit"},
      {"nn.backward_ms", "ms"},
      {"nn.adam_step_us", "us"},
      {"rl.update_self_s", "s"},
      {"rl.collect_s", "s"},
      {"routing.softmin_us", "us"},
      {"routing.validate_us", "us"},
      {"routing.simulate_us", "us"},
      {"mcf.solve_ms.p50", "ms"},
      {"mcf.solve_ms.p90", "ms"},
      {"lp.pivots_per_solve", "pivots/solve"},
      {"mcf.cache_hit_ratio", "ratio"},
      {"mcf.cache_lookups", "count"},
      {"mcf.exact_frac", "ratio"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return kUnits;
}

const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "ok_frac",
                                 "throughput", "p50_ms", "p90_ms"};
// A traced run whose layer spans leave more than this share of the
// workload's time unclaimed is named in the record.
constexpr double kCoverageFloor = 0.9;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <train_abilene|eval_geant> "
               "--seed N --seconds S --trace 0|1 "
               "[--nproc N] [--out-dir DIR] [--git-sha SHA] "
               "[--source-digest HEX]\n");
  return 2;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __VERSION__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string metrics_json(const Outcome& out, bool trace) {
  std::vector<std::pair<std::string, std::string>> fields;
  auto add = [&](const std::string& name) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end()) return;
    fields.emplace_back(
        name, Json::object({{"value", Json::number(it->second.value)},
                            {"unit", Json::quote(it->second.unit)}}));
  };
  if (trace) {
    for (const auto& [name, unit] : layer_metric_units()) add(name);
  } else {
    for (const char* name : kEndToEnd) add(name);
  }
  return Json::object(fields);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  options.nproc = static_cast<int>(std::thread::hardware_concurrency());
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--nproc") {
      options.nproc = std::atoi(value.c_str());
    } else if (arg == "--out-dir") {
      options.out_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-digest") {
      source_digest = value;
    } else {
      return usage();
    }
  }
  if (trace != 0 && trace != 1) return usage();
  if (options.seconds <= 0.0 || options.nproc < 1) return usage();
  options.trace = trace == 1;

  Outcome out;
  try {
    if (options.workload == "train_abilene") {
      out = run_train(options);
    } else if (options.workload == "eval_geant") {
      out = run_eval(options);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  if (options.trace) {
    for (const auto& [name, unit] : layer_metric_units()) {
      out.check(out.metrics.count(name) == 1,
                "per-layer metric not measured: " + name);
    }
    const auto it = out.metrics.find("trace.coverage");
    if (it != out.metrics.end() && it->second.value < kCoverageFloor) {
      out.note("unaccounted_workload", Json::quote(options.workload));
    }
  } else {
    for (const char* name : kEndToEnd) {
      out.check(out.metrics.count(name) == 1,
                std::string("end-to-end metric not measured: ") + name);
    }
  }
  out.check(out.attempted >= 1, "no operation attempted");

  std::vector<std::string> failures;
  for (const auto& f : out.check_failures) failures.push_back(Json::quote(f));
  std::vector<std::pair<std::string, std::string>> record = {
      {"schema", Json::quote("perfbench.record.v1")},
      {"workload", Json::quote(options.workload)},
      {"seed", Json::number(static_cast<double>(options.seed))},
      {"seconds", Json::number(options.seconds)},
      {"trace", options.trace ? "true" : "false"},
      {"host_cores", Json::number(options.nproc)},
      {"hardware_concurrency",
       Json::number(std::thread::hardware_concurrency())},
      {"compiler", Json::quote(compiler())},
      {"build_type", Json::quote(PERFBENCH_BUILD_TYPE)},
      {"gddr_check", PERFBENCH_GDDR_CHECK ? "true" : "false"},
      {"sanitizer", Json::quote(PERFBENCH_SANITIZE)},
      {"git_sha", Json::quote(git_sha)},
      {"source_digest", Json::quote(source_digest)},
      {"check_failures", Json::array(failures)},
  };
  record.insert(record.end(), out.record.begin(), out.record.end());
  record.emplace_back("metrics", metrics_json(out, options.trace));
  const std::string record_json = Json::object(record);
  std::ofstream(options.out_dir + "/record-" + options.workload + "-seed" +
                std::to_string(options.seed) + "-trace" +
                std::to_string(trace) + ".json")
      << record_json << "\n";
  std::printf("%s\n", Json::object({{"record", record_json}}).c_str());

  std::printf("%s\n",
              Json::object({{"correct", out.correct ? "true" : "false"},
                            {"attempted", std::to_string(out.attempted)},
                            {"failed", std::to_string(out.failed)},
                            {"metrics", metrics_json(out, options.trace)}})
                  .c_str());
  std::fflush(stdout);
  return 0;
}
