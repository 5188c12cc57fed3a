// Parameter and checkpoint (de)serialisation.
//
// Container format (little-endian binary), magic "GDDRPARM", version 2:
// u32 version, u32 section count, then per section {u32 section id, u64
// payload bytes, payload}, then a checksum trailer.  A plain parameter
// file holds a single kParameters section; trainer checkpoints add Adam
// moments, RNG streams, trainer counters, collector slots and env states
// as further sections (see rl/checkpoint.hpp).
//
// Bit-rot detection: the checksum trailer is magic "CRCS", u32 count
// (must equal the section count), then one util::crc32 per section
// payload in on-disk order.  The reader verifies every checksum up front
// and names the corrupted *section* on mismatch, instead of surfacing
// whatever parse error the flipped byte happens to cause deep inside the
// payload.  Any other version, and a file without the trailer, is
// rejected with util::IoError.
//
// Safety properties:
//  * writes are crash-safe (tmp + fsync + rename via
//    util::write_file_atomic) — a crash mid-save leaves the previous
//    file intact;
//  * loads are staged — every byte is parsed and validated into
//    temporaries before the first destination parameter is touched, so a
//    corrupted/truncated/mismatched file throws (naming the offending
//    field) and never half-loads;
//  * loading validates every shape against the destination parameters,
//    so a mismatched architecture fails loudly instead of silently
//    corrupting.
#pragma once

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/tensor.hpp"

namespace gddr::nn {

inline constexpr std::uint32_t kFormatVersionSectioned = 2;

// Section ids of the v2 container.  Values are stable on-disk identifiers.
enum class Section : std::uint32_t {
  kParameters = 1,  // model weights (see parameters_payload)
  kAdam = 2,        // optimiser step count + first/second moments
  kTrainer = 3,     // PPO RNG stream, counters, learning rate
  kCollector = 4,   // per-env collector slots (RNG, pending observation)
  kEnvs = 5,        // opaque per-env state blobs (Env::save_state)
};

const char* to_string(Section section);

// ---- low-level primitives (shared with rl/checkpoint.cpp) ----

// Writes a trivially-copyable value raw.
template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof value);
}

// Reads a trivially-copyable value; throws util::IoError naming `field`
// on a short read.
void read_bytes(std::istream& is, void* dst, std::size_t size,
                const std::string& field);

template <typename T>
T read_pod(std::istream& is, const std::string& field) {
  T value;
  read_bytes(is, &value, sizeof value, field);
  return value;
}

// Tensor payload: u32 rows, u32 cols, f32 data.  read_tensor builds a
// fresh tensor of the stored shape; read_tensor_checked additionally
// requires the stored shape to match `expected` and throws naming
// `field` otherwise.
void write_tensor(std::ostream& os, const Tensor& t);
Tensor read_tensor(std::istream& is, const std::string& field);
Tensor read_tensor_checked(std::istream& is, const Tensor& expected,
                           const std::string& field);

// ---- v2 sectioned container ----

class ContainerWriter {
 public:
  // Adds a section (ids must be unique; order is preserved on disk).
  void add(Section id, std::string payload);

  // Serialises and writes the container crash-safely.  Throws
  // util::IoError on I/O failure (including injected ckpt_write faults).
  void write(const std::string& path) const;

 private:
  std::vector<std::pair<Section, std::string>> sections_;
};

class ContainerReader {
 public:
  // Reads and validates the whole file up front.  Throws util::IoError
  // on missing/corrupt/unsupported files, naming what was being read.
  explicit ContainerReader(const std::string& path);

  bool has(Section id) const;
  // Payload bytes of `id`; throws util::IoError naming the section when
  // absent.
  const std::string& payload(Section id) const;

 private:
  std::string path_;
  std::vector<std::pair<Section, std::string>> sections_;
};

// ---- parameter payloads ----

// u64 count, then {u32 rows, u32 cols, f32 data} per parameter.
std::string parameters_payload(std::span<Parameter* const> params);

// Parses and validates the payload fully (count and every shape against
// `params`), then commits — on any throw the destination is untouched.
void load_parameters_payload(const std::string& payload,
                             std::span<Parameter* const> params,
                             const std::string& context);

// ---- public entry points ----

// Writes every parameter's current values (v2 container, atomic).
// Throws util::IoError on I/O failure.
void save_parameters(const std::string& path,
                     std::span<Parameter* const> params);

// Reads values saved by save_parameters into
// `params`.  Throws util::IoError on I/O failure, format mismatch, wrong
// parameter count or any shape mismatch; never half-loads.
void load_parameters(const std::string& path,
                     std::span<Parameter* const> params);

}  // namespace gddr::nn
