#include "lifecycle/registry.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "nn/serialize.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/fault.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace gddr::lifecycle {
namespace {

constexpr const char* kManifestHeader = "gddr.registry.v1";
constexpr const char* kManifestName = "MANIFEST";

std::string version_filename(std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "v%06llu.gddrparm",
                static_cast<unsigned long long>(version));
  return buf;
}

// Inverse of version_filename: 0 when `name` is not a version file.
std::uint64_t parse_version_filename(const std::string& name) {
  if (name.size() < 2 || name.front() != 'v') return 0;
  const std::size_t dot = name.find('.');
  if (dot == std::string::npos || name.substr(dot) != ".gddrparm") return 0;
  std::uint64_t version = 0;
  for (std::size_t i = 1; i < dot; ++i) {
    if (name[i] < '0' || name[i] > '9') return 0;
    version = version * 10 + static_cast<std::uint64_t>(name[i] - '0');
  }
  return version;
}

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw util::IoError("ModelRegistry: cannot open " + what + " '" + path +
                        "'");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    throw util::IoError("ModelRegistry: failed reading " + what + " '" +
                        path + "'");
  }
  return std::move(buf).str();
}

// Shape-validates `payload` against the configured architecture by
// loading it into a throwaway policy — the same staged, fully-validating
// path a real load takes, so publish and load can never disagree about
// what is acceptable.
void validate_parameters(const std::string& payload,
                         const core::GnnPolicyConfig& config,
                         const std::string& context) {
  util::Rng rng(1);
  core::GnnPolicy probe(config, rng);
  const std::vector<nn::Parameter*> params = probe.parameters();
  nn::load_parameters_payload(payload, params, context);
}

}  // namespace

ModelRegistry::ModelRegistry(std::string dir, RegistryConfig config)
    : dir_(std::move(dir)), config_(config) {
  if (config_.retention < 1) {
    throw std::invalid_argument("ModelRegistry: retention must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    throw util::IoError("ModelRegistry: cannot create directory '" + dir_ +
                        "': " + ec.message());
  }
  const util::MutexLock lock(mu_);
  scan();
}

void ModelRegistry::scan() {
  entries_.clear();
  const std::string manifest_path = dir_ + "/" + kManifestName;
  bool have_manifest = std::filesystem::exists(manifest_path);
  if (have_manifest) {
    std::istringstream in(read_file(manifest_path, "manifest"));
    std::string header;
    std::getline(in, header);
    if (header != kManifestHeader) {
      throw util::IoError("ModelRegistry: bad manifest header '" + header +
                          "' in '" + manifest_path + "'");
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      RegistryEntry entry;
      if (!(fields >> entry.version >> entry.filename >> entry.bytes >>
            entry.crc) ||
          entry.version == 0) {
        throw util::IoError("ModelRegistry: malformed manifest line '" +
                            line + "' in '" + manifest_path + "'");
      }
      // The filename is later opened and, past retention, deleted: any
      // name but the version's own (say "../x") would reach outside dir_.
      if (entry.filename != version_filename(entry.version)) {
        throw util::IoError("ModelRegistry: manifest filename '" +
                            entry.filename + "' is not '" +
                            version_filename(entry.version) + "' in '" +
                            manifest_path + "'");
      }
      entries_.push_back(std::move(entry));
    }
  }

  // Adopt orphaned version files (a crash between writing the version
  // file and rewriting the manifest): the publish survived, so it is
  // re-indexed rather than silently ignored or deleted.
  bool adopted = false;
  for (const auto& dirent : std::filesystem::directory_iterator(dir_)) {
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    const std::uint64_t version = parse_version_filename(name);
    if (version == 0) continue;
    const bool known = std::any_of(
        entries_.begin(), entries_.end(),
        [version](const RegistryEntry& e) { return e.version == version; });
    if (known) continue;
    const std::string contents = read_file(dirent.path().string(), "orphan");
    RegistryEntry entry;
    entry.version = version;
    entry.filename = name;
    entry.bytes = contents.size();
    entry.crc = util::crc32(contents);
    entries_.push_back(std::move(entry));
    adopted = true;
  }

  std::sort(entries_.begin(), entries_.end(),
            [](const RegistryEntry& a, const RegistryEntry& b) {
              return a.version < b.version;
            });
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].version == entries_[i - 1].version) {
      throw util::IoError("ModelRegistry: duplicate version " +
                          std::to_string(entries_[i].version) + " in '" +
                          manifest_path + "'");
    }
  }
  if (adopted) write_manifest();
}

void ModelRegistry::write_manifest() const {
  std::ostringstream out;
  out << kManifestHeader << "\n";
  for (const RegistryEntry& entry : entries_) {
    out << entry.version << ' ' << entry.filename << ' ' << entry.bytes
        << ' ' << entry.crc << "\n";
  }
  util::write_file_atomic(dir_ + "/" + kManifestName, out.str());
}

std::uint64_t ModelRegistry::publish_file(
    const std::string& checkpoint_path) {
  if (util::inject(util::FaultSite::kRegistryPublish)) {
    obs::count("lifecycle/fault/registry_publish");
    throw util::IoError("ModelRegistry: injected publish fault for '" +
                        checkpoint_path + "'");
  }

  // Validate everything before the lock and before any write: container
  // CRCs, section presence, and every parameter shape.
  const nn::ContainerReader source(checkpoint_path);
  const std::string& payload = source.payload(nn::Section::kParameters);
  validate_parameters(payload, config_.policy,
                      "ModelRegistry publish '" + checkpoint_path + "'");

  nn::ContainerWriter writer;
  writer.add(nn::Section::kParameters, payload);

  const util::MutexLock lock(mu_);
  const std::uint64_t version =
      entries_.empty() ? 1 : entries_.back().version + 1;
  const std::string filename = version_filename(version);
  const std::string path = dir_ + "/" + filename;
  writer.write(path);  // atomic (tmp + fsync + rename)

  // Read the published bytes back so the manifest CRC covers exactly
  // what a future load() will see.
  const std::string contents = read_file(path, "published version");
  RegistryEntry entry;
  entry.version = version;
  entry.filename = filename;
  entry.bytes = contents.size();
  entry.crc = util::crc32(contents);
  entries_.push_back(std::move(entry));

  while (entries_.size() > static_cast<std::size_t>(config_.retention)) {
    std::error_code ec;
    std::filesystem::remove(dir_ + "/" + entries_.front().filename, ec);
    // A file that refuses to delete costs disk, not correctness; the
    // manifest drop below still retires the version.
    entries_.erase(entries_.begin());
  }
  write_manifest();
  obs::count("lifecycle/publishes");
  return version;
}

std::shared_ptr<const core::GnnPolicy> ModelRegistry::load(
    std::uint64_t version) const {
  RegistryEntry entry;
  {
    const util::MutexLock lock(mu_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [version](const RegistryEntry& e) { return e.version == version; });
    if (it == entries_.end()) {
      throw util::IoError("ModelRegistry: unknown version " +
                          std::to_string(version) + " in '" + dir_ + "'");
    }
    entry = *it;
  }

  const std::string path = dir_ + "/" + entry.filename;
  const std::string contents = read_file(path, "version file");
  if (contents.size() != entry.bytes || util::crc32(contents) != entry.crc) {
    throw util::IoError("ModelRegistry: version " + std::to_string(version) +
                        " ('" + path + "') does not match its manifest "
                        "size/CRC — refusing to load corrupt weights");
  }

  const nn::ContainerReader reader(path);
  util::Rng rng(1);
  auto policy = std::make_shared<core::GnnPolicy>(config_.policy, rng);
  const std::vector<nn::Parameter*> params = policy->parameters();
  nn::load_parameters_payload(
      reader.payload(nn::Section::kParameters), params,
      "ModelRegistry load v" + std::to_string(version));
  return policy;
}

std::vector<RegistryEntry> ModelRegistry::entries() const {
  const util::MutexLock lock(mu_);
  return entries_;
}

std::uint64_t ModelRegistry::latest() const {
  const util::MutexLock lock(mu_);
  return entries_.empty() ? 0 : entries_.back().version;
}

}  // namespace gddr::lifecycle
