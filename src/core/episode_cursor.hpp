// Episode bookkeeping shared by RoutingEnv (paper §V) and
// IterativeRoutingEnv (§VII-B), which differ only in what one step does.
// The cursor picks the (scenario, demand sequence) each episode runs on:
// train mode draws a scenario, then one of its train sequences, from the
// sampling RNG (multi-topology training, §VIII-D, Figure 8); test mode
// sweeps every (scenario, test sequence) pair — a test *unit* — in order.
// It also holds the shareable LP cache and writes the common prefix of
// the env-state blob.
#pragma once

#include <cstdint>
#include <istream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "mcf/cache.hpp"
#include "util/rng.hpp"

namespace gddr::core {

class EpisodeCursor {
 public:
  enum class Mode { kTrain, kTest };

  // The cursor's dynamic state.
  struct Position {
    util::Rng rng;
    Mode mode = Mode::kTrain;
    std::size_t scenario = 0;
    std::size_t sequence = 0;
    std::size_t test_cursor = 0;  // next unit of the test sweep
  };

  // Throws std::invalid_argument, prefixed with `owner` (the env's name),
  // when `scenarios` is empty, a scenario lacks train or test sequences,
  // or any sequence has no more than `memory` demand matrices (an episode
  // needs a full history window plus a matrix to route).
  EpisodeCursor(std::vector<Scenario> scenarios, int memory,
                std::uint64_t seed, std::string owner);

  // Switches mode and restarts the test sweep at unit 0.
  void set_mode(Mode mode);
  // Moves to the next episode's (scenario, sequence).
  void next_sequence();

  const Scenario& scenario() const { return scenario_at(pos_); }
  const traffic::DemandSequence& sequence() const {
    return sequence_at(pos_);
  }

  std::size_t num_test_units() const { return test_units_; }
  const traffic::DemandSequence& test_unit_sequence(std::size_t unit) const;
  // The next next_sequence() starts unit `unit` (modulo the unit count);
  // requires kTest mode.
  void seek_test_unit(std::size_t unit);

  mcf::OptimalCache& cache() { return *cache_; }
  // The cache is internally locked, so env instances stepping the same
  // scenarios concurrently can share one instead of re-solving LPs.
  std::shared_ptr<mcf::OptimalCache> shared_cache() const { return cache_; }
  void set_shared_cache(std::shared_ptr<mcf::OptimalCache> cache);

  // The env-state blob's common prefix: u32 version, the RNG
  // (rl::write_rng_state), u8 mode (1 = test), u64 scenario index, u64
  // sequence index, u64 test cursor.  Each env appends its own fields.
  void write_state(std::ostream& os) const;
  // Reads that prefix and range-checks it against the scenarios, throwing
  // util::IoError naming the field; the cursor itself is not touched
  // until restore().
  Position read_state(std::istream& is) const;
  void restore(Position pos) { pos_ = std::move(pos); }

  const Scenario& scenario_at(const Position& pos) const {
    return scenarios_[pos.scenario];
  }
  const traffic::DemandSequence& sequence_at(const Position& pos) const;

 private:
  std::vector<Scenario> scenarios_;
  std::string owner_;
  std::size_t test_units_ = 0;
  std::shared_ptr<mcf::OptimalCache> cache_;
  Position pos_;
};

}  // namespace gddr::core
