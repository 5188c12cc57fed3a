// Versioned on-disk model registry + in-memory published-policy cell.
//
// Training produces checkpoints; serving needs a *sequence* of policies
// it can adopt, compare and roll back between — the registry is the
// durable half of that contract and PolicySlot the in-memory half.
//
// On-disk layout (one directory per registry):
//
//   MANIFEST              index: "gddr.registry.v1" header, then one
//                         line per version — "<id> <file> <bytes> <crc>"
//                         in ascending id order.
//   v000001.gddrparm ...  one parameters-only GDDRPARM v2 container per
//                         published version.
//
// Durability and crash safety:
//  * publish_file() fully validates the source checkpoint (container
//    CRCs, then every parameter shape against the configured GnnPolicy
//    architecture) *before* anything is written;
//  * the version file and the MANIFEST each land via
//    util::write_file_atomic (tmp + fsync + rename) — a crash between
//    the two leaves an orphaned version file that the next open adopts
//    back into the manifest, so a published version is never lost and a
//    torn one is never visible;
//  * version ids are monotonic (max existing + 1) and never reused, even
//    after retention pruning deletes old files;
//  * load() re-checks the stored CRC over the whole file against the
//    manifest before parsing, so silent bit rot is named at the registry
//    boundary rather than surfacing as a weight-shaped parse error.
//
// Fault site: registry_publish fails a publish before any byte is
// written (the registry stays exactly as it was).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/policies.hpp"
#include "util/sync.hpp"

namespace gddr::lifecycle {

struct RegistryConfig {
  // Newest versions kept on disk; older files are pruned at publish
  // time (their ids remain burned).  Must be >= 1.
  int retention = 8;
  // Architecture every published checkpoint must match.  Publishing a
  // mismatched checkpoint fails validation instead of producing a
  // version that every load would reject.
  core::GnnPolicyConfig policy;
};

struct RegistryEntry {
  std::uint64_t version = 0;
  std::string filename;  // relative to the registry directory
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;  // util::crc32 over the whole file
};

class ModelRegistry {
 public:
  // Opens (creating the directory if needed) and scans the registry:
  // parses MANIFEST and adopts any orphaned v*.gddrparm files a crash
  // left behind.  Throws util::IoError on an unreadable or malformed
  // registry.
  ModelRegistry(std::string dir, RegistryConfig config);

  // Publishes the kParameters section of `checkpoint_path` (any
  // GDDRPARM v2 file — full trainer checkpoints are stripped to
  // parameters only) as the next version.  Validates container CRCs and
  // every parameter shape against the configured architecture first.
  // Returns the new version id.  Throws util::IoError on validation or
  // I/O failure (including the injected registry_publish fault); the
  // registry is unchanged on any throw.
  std::uint64_t publish_file(const std::string& checkpoint_path)
      GDDR_EXCLUDES(mu_);

  // Loads `version` into a freshly constructed policy (CRC-checked
  // against the manifest first).  Throws util::IoError on an unknown
  // version or a corrupt file.
  std::shared_ptr<const core::GnnPolicy> load(std::uint64_t version) const
      GDDR_EXCLUDES(mu_);

  // Snapshot of the index, ascending by version.
  std::vector<RegistryEntry> entries() const GDDR_EXCLUDES(mu_);
  // Newest version id; 0 when the registry is empty.
  std::uint64_t latest() const GDDR_EXCLUDES(mu_);

  const std::string& dir() const { return dir_; }
  const RegistryConfig& config() const { return config_; }

 private:
  void scan() GDDR_REQUIRES(mu_);
  void write_manifest() const GDDR_REQUIRES(mu_);

  std::string dir_;
  RegistryConfig config_;
  mutable util::Mutex mu_{util::LockRank::kModelRegistry,
                          "lifecycle/registry"};
  std::vector<RegistryEntry> entries_ GDDR_GUARDED_BY(mu_);
};

// RCU-style published-policy cell: writers store() a complete
// (policy, version) pair, readers load() a shared_ptr copy that stays
// valid however many swaps happen after — no torn reads, no lifetime
// cliff.  This is the standalone primitive mirroring the slot built
// into serve::Engine; the lifecycle layer uses it to track the
// last-good (rollback target) policy.
class PolicySlot {
 public:
  struct Value {
    std::shared_ptr<const core::GnnPolicy> policy;
    std::uint64_t version = 0;
  };

  Value load() const GDDR_EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return value_;
  }

  void store(Value value) GDDR_EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    value_ = std::move(value);
    ++swaps_;
  }

  long swaps() const GDDR_EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return swaps_;
  }

 private:
  mutable util::Mutex mu_{util::LockRank::kPolicySlot, "lifecycle/slot"};
  Value value_ GDDR_GUARDED_BY(mu_);
  long swaps_ GDDR_GUARDED_BY(mu_) = 0;
};

}  // namespace gddr::lifecycle
