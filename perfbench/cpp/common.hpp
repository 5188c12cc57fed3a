// Shared plumbing for the perfbench workloads: run options, the outcome
// every workload fills in, clocks, and a minimal JSON writer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;            // cores the run may use (threads never exceed it)
  std::string out_dir = ".";  // spans and records are written here
};

// Appends JSON text; values are written with every significant digit.
class Json {
 public:
  static std::string number(double v);
  static std::string quote(const std::string& s);
  // {"k": v, ...} from already-rendered values, in insertion order.
  static std::string object(
      const std::vector<std::pair<std::string, std::string>>& fields);
  static std::string array(const std::vector<std::string>& items);
};

// JSON array of numbers.
std::string json_numbers(const std::vector<double>& values);

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run reports.  `metrics` go on the result line;
// `record` holds everything else worth keeping (workload-specific
// figures, sample counts, check details), already rendered as JSON.
struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, std::string>> record;
  std::vector<std::string> check_failures;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      check_failures.push_back(what);
    }
  }
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& key, const std::string& json) {
    record.emplace_back(key, json);
  }
  void note(const std::string& key, double value) {
    record.emplace_back(key, Json::number(value));
  }
};

// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();

// FNV-1a over the bytes of every parameter value: equal hashes mean
// bit-identical parameters.
std::uint64_t parameter_hash(const std::vector<gddr::nn::Parameter*>& params);

}  // namespace perfbench
