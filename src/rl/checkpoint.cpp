// Trainer checkpoint/resume: PpoTrainer::save_checkpoint /
// load_checkpoint and the VecEnvCollector slot (de)serialisation.
//
// Checkpoint layout (GDDRPARM v2 container, see nn/serialize.hpp):
//   kParameters — policy weights (nn::parameters_payload layout)
//   kAdam       — i64 step count, u64 param count, per param {m, v}
//   kTrainer    — shuffle RNG state, i64 total_env_steps, i64 iterations,
//                 f64 learning rate
//   kCollector  — u64 env count, per slot {action RNG state,
//                 u8 needs_reset, f64 episode reward, pending observation}
//   kEnvs       — u64 env count, per env {u64 blob len, opaque bytes}
//
// load_checkpoint is staged: every section is parsed and validated into
// temporaries (shapes checked against the live parameters) before the
// first trainer member is mutated, so a corrupt file throws util::IoError
// naming the offending field and leaves the trainer unchanged.
#include "rl/checkpoint.hpp"

#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_env.hpp"
#include "util/error.hpp"

namespace gddr::rl {
namespace {

using nn::read_bytes;
using nn::read_pod;
using nn::write_pod;

// Upper bound on any serialised element count; anything larger is a
// corrupt length field, not a real checkpoint.
constexpr std::uint64_t kMaxElements = 1ULL << 28;

std::uint64_t read_count(std::istream& is, const std::string& field) {
  const auto count = read_pod<std::uint64_t>(is, field);
  if (count > kMaxElements) {
    throw util::IoError("implausible count " + std::to_string(count) +
                        " in field '" + field + "'");
  }
  return count;
}

template <typename T>
void write_vector(std::ostream& os, const std::vector<T>& v) {
  write_pod(os, static_cast<std::uint64_t>(v.size()));
  if (!v.empty()) {
    os.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(T)));
  }
}

template <typename T>
std::vector<T> read_vector(std::istream& is, const std::string& field) {
  const std::uint64_t count = read_count(is, field + " length");
  std::vector<T> v(static_cast<std::size_t>(count));
  if (count > 0) read_bytes(is, v.data(), v.size() * sizeof(T), field);
  return v;
}

}  // namespace

// ---- shared helpers ----

void write_rng_state(std::ostream& os, const util::Rng& rng) {
  const util::Rng::State state = rng.state();
  for (const std::uint64_t word : state.s) write_pod(os, word);
  write_pod(os, state.cached_normal);
  write_pod(os, static_cast<std::uint8_t>(state.has_cached_normal ? 1 : 0));
}

void read_rng_state(std::istream& is, util::Rng& rng,
                    const std::string& field) {
  util::Rng::State state;
  for (std::uint64_t& word : state.s) {
    word = read_pod<std::uint64_t>(is, field + " words");
  }
  state.cached_normal = read_pod<double>(is, field + " cached normal");
  const auto flag = read_pod<std::uint8_t>(is, field + " cache flag");
  if (flag > 1) {
    throw util::IoError("corrupt boolean in field '" + field +
                        " cache flag'");
  }
  state.has_cached_normal = flag != 0;
  rng.set_state(state);
}

void write_observation(std::ostream& os, const Observation& obs) {
  write_vector(os, obs.flat);
  nn::write_tensor(os, obs.nodes);
  nn::write_tensor(os, obs.edges);
  nn::write_tensor(os, obs.globals);
  write_vector(os, obs.senders);
  write_vector(os, obs.receivers);
  write_pod(os, static_cast<std::int32_t>(obs.num_nodes));
}

Observation read_observation(std::istream& is, const std::string& field) {
  Observation obs;
  obs.flat = read_vector<double>(is, field + " flat");
  obs.nodes = nn::read_tensor(is, field + " nodes");
  obs.edges = nn::read_tensor(is, field + " edges");
  obs.globals = nn::read_tensor(is, field + " globals");
  obs.senders = read_vector<int>(is, field + " senders");
  obs.receivers = read_vector<int>(is, field + " receivers");
  obs.num_nodes = read_pod<std::int32_t>(is, field + " num_nodes");
  return obs;
}

// ---- collector slots ----

void VecEnvCollector::save_state(std::ostream& os) const {
  write_pod(os, static_cast<std::uint64_t>(slots_.size()));
  for (const EnvSlot& slot : slots_) {
    write_rng_state(os, slot.rng);
    write_pod(os, static_cast<std::uint8_t>(slot.needs_reset ? 1 : 0));
    write_pod(os, slot.episode_reward);
    write_observation(os, slot.obs);
  }
}

void VecEnvCollector::load_state(std::istream& is) {
  const std::uint64_t count = read_count(is, "collector env count");
  if (count != slots_.size()) {
    throw util::IoError("collector env count mismatch: checkpoint has " +
                        std::to_string(count) + ", trainer has " +
                        std::to_string(slots_.size()));
  }

  struct SlotState {
    util::Rng rng;
    bool needs_reset = true;
    double episode_reward = 0.0;
    Observation obs;
  };
  std::vector<SlotState> staged(slots_.size());
  for (std::size_t i = 0; i < staged.size(); ++i) {
    const std::string field = "collector slot " + std::to_string(i);
    SlotState& s = staged[i];
    read_rng_state(is, s.rng, field + " rng");
    const auto flag = read_pod<std::uint8_t>(is, field + " needs_reset");
    if (flag > 1) {
      throw util::IoError("corrupt boolean in field '" + field +
                          " needs_reset'");
    }
    s.needs_reset = flag != 0;
    s.episode_reward = read_pod<double>(is, field + " episode_reward");
    s.obs = read_observation(is, field + " observation");
  }

  for (std::size_t i = 0; i < slots_.size(); ++i) {
    slots_[i].rng = staged[i].rng;
    slots_[i].needs_reset = staged[i].needs_reset;
    slots_[i].episode_reward = staged[i].episode_reward;
    slots_[i].obs = std::move(staged[i].obs);
  }
}

// ---- trainer checkpoint ----

void PpoTrainer::save_checkpoint(const std::string& path) const {
  obs::ScopedTimer write_timer("ckpt/write");
  nn::ContainerWriter writer;
  writer.add(nn::Section::kParameters, nn::parameters_payload(params_));

  {
    std::ostringstream os;
    const nn::Adam::State state = optimizer_.export_state(params_);
    write_pod(os, static_cast<std::int64_t>(state.t));
    write_pod(os, static_cast<std::uint64_t>(state.m.size()));
    for (std::size_t i = 0; i < state.m.size(); ++i) {
      nn::write_tensor(os, state.m[i]);
      nn::write_tensor(os, state.v[i]);
    }
    writer.add(nn::Section::kAdam, std::move(os).str());
  }

  {
    std::ostringstream os;
    write_rng_state(os, rng_);
    write_pod(os, static_cast<std::int64_t>(total_env_steps_));
    write_pod(os, static_cast<std::int64_t>(iterations_));
    write_pod(os, optimizer_.learning_rate());
    writer.add(nn::Section::kTrainer, std::move(os).str());
  }

  {
    std::ostringstream os;
    collector_.save_state(os);
    writer.add(nn::Section::kCollector, std::move(os).str());
  }

  {
    std::ostringstream os;
    const auto n = static_cast<std::uint64_t>(collector_.num_envs());
    write_pod(os, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::vector<std::uint8_t> blob =
          collector_.env(static_cast<int>(i)).save_state();
      write_pod(os, static_cast<std::uint64_t>(blob.size()));
      if (!blob.empty()) {
        os.write(reinterpret_cast<const char*>(blob.data()),
                 static_cast<std::streamsize>(blob.size()));
      }
    }
    writer.add(nn::Section::kEnvs, std::move(os).str());
  }

  writer.write(path);
  obs::count("ckpt/writes");
}

void PpoTrainer::load_checkpoint(const std::string& path) {
  obs::ScopedTimer read_timer("ckpt/read");
  const nn::ContainerReader reader(path);
  for (const nn::Section section :
       {nn::Section::kParameters, nn::Section::kAdam, nn::Section::kTrainer,
        nn::Section::kCollector, nn::Section::kEnvs}) {
    if (!reader.has(section)) {
      throw util::IoError("checkpoint " + path + " missing section '" +
                          nn::to_string(section) + "'");
    }
  }

  // Stage 1: parse every section into temporaries, validating against
  // the live trainer (param shapes, env counts).  Nothing is mutated yet.
  nn::Adam::State adam;
  {
    std::istringstream is(reader.payload(nn::Section::kAdam));
    adam.t = static_cast<long>(read_pod<std::int64_t>(is, "adam step count"));
    if (adam.t < 0) {
      throw util::IoError("negative step count in field 'adam step count'");
    }
    const std::uint64_t count = read_count(is, "adam moment count");
    if (count != params_.size()) {
      throw util::IoError(
          "adam moment count mismatch: checkpoint has " +
          std::to_string(count) + ", policy has " +
          std::to_string(params_.size()) + " parameters");
    }
    adam.m.reserve(count);
    adam.v.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string field = "adam moment " + std::to_string(i);
      adam.m.push_back(nn::read_tensor_checked(is, params_[i]->value,
                                               field + " (m)"));
      adam.v.push_back(nn::read_tensor_checked(is, params_[i]->value,
                                               field + " (v)"));
    }
  }

  util::Rng::State trainer_rng;
  std::int64_t total_env_steps = 0;
  std::int64_t iterations = 0;
  double learning_rate = 0.0;
  {
    std::istringstream is(reader.payload(nn::Section::kTrainer));
    util::Rng scratch(0);
    read_rng_state(is, scratch, "trainer rng");
    trainer_rng = scratch.state();
    total_env_steps = read_pod<std::int64_t>(is, "trainer total_env_steps");
    iterations = read_pod<std::int64_t>(is, "trainer iterations");
    learning_rate = read_pod<double>(is, "trainer learning_rate");
    if (total_env_steps < 0 || iterations < 0) {
      throw util::IoError("negative counter in section 'trainer'");
    }
    if (!(learning_rate > 0.0)) {
      throw util::IoError(
          "non-positive value in field 'trainer learning_rate'");
    }
  }

  std::vector<std::vector<std::uint8_t>> env_blobs;
  {
    std::istringstream is(reader.payload(nn::Section::kEnvs));
    const std::uint64_t count = read_count(is, "env state count");
    if (count != static_cast<std::uint64_t>(collector_.num_envs())) {
      throw util::IoError("env state count mismatch: checkpoint has " +
                          std::to_string(count) + ", trainer has " +
                          std::to_string(collector_.num_envs()));
    }
    env_blobs.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string field = "env " + std::to_string(i) + " state";
      const std::uint64_t len = read_count(is, field + " length");
      std::vector<std::uint8_t> blob(static_cast<std::size_t>(len));
      if (len > 0) read_bytes(is, blob.data(), blob.size(), field);
      env_blobs.push_back(std::move(blob));
    }
  }

  // Stage 2: commit.  Envs are restored first: they validate their own
  // blobs and throw before the trainer core has been touched.
  for (std::size_t i = 0; i < env_blobs.size(); ++i) {
    collector_.env(static_cast<int>(i)).restore_state(env_blobs[i]);
  }
  {
    std::istringstream is(reader.payload(nn::Section::kCollector));
    collector_.load_state(is);
  }
  nn::load_parameters_payload(reader.payload(nn::Section::kParameters),
                              params_, "checkpoint " + path);
  optimizer_.import_state(adam, params_);
  optimizer_.set_learning_rate(learning_rate);
  rng_.set_state(trainer_rng);
  total_env_steps_ = static_cast<long>(total_env_steps);
  iterations_ = static_cast<long>(iterations);
  health_.capture(optimizer_);
}

}  // namespace gddr::rl
