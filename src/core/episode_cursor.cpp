#include "core/episode_cursor.hpp"

#include <stdexcept>
#include <tuple>
#include <utility>

#include "nn/serialize.hpp"
#include "rl/checkpoint.hpp"
#include "util/error.hpp"

namespace gddr::core {

namespace {

constexpr std::uint32_t kEnvStateVersion = 1;

// (scenario, test sequence) of sweep unit `unit`; requires
// unit < the total test-sequence count.
std::pair<std::size_t, std::size_t> locate_test_unit(
    const std::vector<Scenario>& scenarios, std::size_t unit) {
  std::size_t scenario = 0;
  while (unit >= scenarios[scenario].test_sequences.size()) {
    unit -= scenarios[scenario].test_sequences.size();
    ++scenario;
  }
  return {scenario, unit};
}

}  // namespace

EpisodeCursor::EpisodeCursor(std::vector<Scenario> scenarios, int memory,
                             std::uint64_t seed, std::string owner)
    : scenarios_(std::move(scenarios)),
      owner_(std::move(owner)),
      cache_(std::make_shared<mcf::OptimalCache>()) {
  pos_.rng = util::Rng(seed);
  if (scenarios_.empty()) {
    throw std::invalid_argument(owner_ + ": no scenarios");
  }
  for (const auto& s : scenarios_) {
    if (s.train_sequences.empty() || s.test_sequences.empty()) {
      throw std::invalid_argument(owner_ + ": scenario missing sequences");
    }
    for (const auto* sequences : {&s.train_sequences, &s.test_sequences}) {
      for (const auto& seq : *sequences) {
        if (static_cast<int>(seq.size()) <= memory) {
          throw std::invalid_argument(
              owner_ + ": sequence of " + std::to_string(seq.size()) +
              " demand matrices needs more than memory " +
              std::to_string(memory));
        }
      }
    }
    test_units_ += s.test_sequences.size();
  }
}

void EpisodeCursor::set_mode(Mode mode) {
  pos_.mode = mode;
  pos_.test_cursor = 0;
}

void EpisodeCursor::next_sequence() {
  if (pos_.mode == Mode::kTrain) {
    pos_.scenario = pos_.rng.uniform_index(scenarios_.size());
    pos_.sequence =
        pos_.rng.uniform_index(scenario().train_sequences.size());
  } else {
    std::tie(pos_.scenario, pos_.sequence) =
        locate_test_unit(scenarios_, pos_.test_cursor);
    pos_.test_cursor = (pos_.test_cursor + 1) % test_units_;
  }
}

const traffic::DemandSequence& EpisodeCursor::test_unit_sequence(
    std::size_t unit) const {
  const auto [scenario, sequence] =
      locate_test_unit(scenarios_, unit % test_units_);
  return scenarios_[scenario].test_sequences[sequence];
}

void EpisodeCursor::seek_test_unit(std::size_t unit) {
  if (pos_.mode != Mode::kTest) {
    throw std::logic_error(owner_ +
                           "::seek_test_unit: requires kTest mode");
  }
  pos_.test_cursor = unit % test_units_;
}

void EpisodeCursor::set_shared_cache(
    std::shared_ptr<mcf::OptimalCache> cache) {
  if (!cache) {
    throw std::invalid_argument(owner_ + "::set_shared_cache: null cache");
  }
  cache_ = std::move(cache);
}

const traffic::DemandSequence& EpisodeCursor::sequence_at(
    const Position& pos) const {
  const Scenario& s = scenario_at(pos);
  return pos.mode == Mode::kTrain ? s.train_sequences[pos.sequence]
                                  : s.test_sequences[pos.sequence];
}

void EpisodeCursor::write_state(std::ostream& os) const {
  nn::write_pod(os, kEnvStateVersion);
  rl::write_rng_state(os, pos_.rng);
  nn::write_pod(os,
                static_cast<std::uint8_t>(pos_.mode == Mode::kTest ? 1 : 0));
  nn::write_pod(os, static_cast<std::uint64_t>(pos_.scenario));
  nn::write_pod(os, static_cast<std::uint64_t>(pos_.sequence));
  nn::write_pod(os, static_cast<std::uint64_t>(pos_.test_cursor));
}

EpisodeCursor::Position EpisodeCursor::read_state(std::istream& is) const {
  const std::string& o = owner_;
  const auto version = nn::read_pod<std::uint32_t>(is, o + " state version");
  if (version != kEnvStateVersion) {
    throw util::IoError("unsupported " + o + " state version " +
                        std::to_string(version));
  }
  Position pos;
  rl::read_rng_state(is, pos.rng, o + " rng");
  const auto mode_flag = nn::read_pod<std::uint8_t>(is, o + " mode");
  if (mode_flag > 1) {
    throw util::IoError("corrupt value in field '" + o + " mode'");
  }
  pos.mode = mode_flag != 0 ? Mode::kTest : Mode::kTrain;
  pos.scenario = nn::read_pod<std::uint64_t>(is, o + " scenario index");
  pos.sequence = nn::read_pod<std::uint64_t>(is, o + " sequence index");
  pos.test_cursor = nn::read_pod<std::uint64_t>(is, o + " test cursor");

  if (pos.scenario >= scenarios_.size()) {
    throw util::IoError(o + " scenario index " +
                        std::to_string(pos.scenario) + " out of range (" +
                        std::to_string(scenarios_.size()) + " scenarios)");
  }
  const Scenario& s = scenario_at(pos);
  if (pos.sequence >= (pos.mode == Mode::kTrain ? s.train_sequences
                                                : s.test_sequences)
                          .size()) {
    throw util::IoError(o + " sequence index " +
                        std::to_string(pos.sequence) + " out of range");
  }
  if (pos.test_cursor >= test_units_) {
    throw util::IoError(o + " test cursor " +
                        std::to_string(pos.test_cursor) + " out of range (" +
                        std::to_string(test_units_) + " test units)");
  }
  return pos;
}

}  // namespace gddr::core
