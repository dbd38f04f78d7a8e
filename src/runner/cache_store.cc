#include "runner/cache_store.h"

#include <cstdio>
#include <filesystem>

#include "common/check.h"
#include "common/serialize.h"
#include "la/backend.h"

namespace ppfr::runner {
namespace {

// Bumped whenever any stage payload layout or this header layout changes;
// old entries then read as plain misses and are rewritten.
// v2: FrOutput/MethodRun payloads gained the block-CG convergence counters.
constexpr uint32_t kFormatVersion = 2;
constexpr uint64_t kMagic = 0x31435252524650ULL;  // "PFRRRC1" little-endian

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string HexKey(uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

}  // namespace

CacheStore::CacheStore(std::string dir) : dir_(std::move(dir)) {
  if (dir_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  PPFR_CHECK(!ec && std::filesystem::is_directory(dir_))
      << "run cache dir '" << dir_ << "' cannot be created: " << ec.message();
}

std::string CacheStore::Fingerprint() {
  std::string fp = "v";
  fp += std::to_string(kFormatVersion);
  fp += "|backend=";
  fp += la::ActiveBackend().name();
  return fp;
}

std::string CacheStore::EntryPath(const char* stage, uint64_t key) const {
  return dir_ + "/" + stage + "-" + HexKey(key) + ".bin";
}

bool CacheStore::Load(const char* stage, uint64_t key, std::string* payload) const {
  if (!enabled()) return false;
  const std::string path = EntryPath(stage, key);
  std::string bytes;
  if (!ReadFileToString(path, &bytes)) return false;  // absent: plain miss

  const auto corrupt = [&] {
    std::fprintf(stderr,
                 "run cache: deleting corrupt entry %s (recomputing stage)\n",
                 path.c_str());
    std::remove(path.c_str());
    return false;
  };

  BinaryReader r(bytes);
  const uint64_t magic = r.ReadU64();
  // A foreign magic means the file is not ours (another tool, or a future
  // format that re-keys the magic): a plain miss, never deleted — the next
  // Store overwrites it in place if this process recomputes the stage.
  if (magic != kMagic) return false;
  const uint32_t version = r.ReadU32();
  const std::string fingerprint = r.ReadString();
  const uint64_t stored_key = r.ReadU64();
  const uint64_t checksum = r.ReadU64();
  std::string body = r.ReadString();
  // A magic-matching entry that is truncated, has trailing junk or fails
  // its checksum is corruption: delete so the recompute rewrites it clean.
  if (!r.AtEnd() || Fnv1a(body) != checksum) return corrupt();
  // An intact entry from another format version, backend or fingerprint is a
  // plain miss — the next Store overwrites it.
  if (version != kFormatVersion || fingerprint != Fingerprint() ||
      stored_key != key) {
    return false;
  }
  *payload = std::move(body);
  return true;
}

void CacheStore::Store(const char* stage, uint64_t key,
                       const std::string& payload) const {
  if (!enabled()) return;
  BinaryWriter w;
  w.WriteU64(kMagic);
  w.WriteU32(kFormatVersion);
  w.WriteString(Fingerprint());
  w.WriteU64(key);
  w.WriteU64(Fnv1a(payload));
  w.WriteString(payload);
  std::string error;
  if (!WriteFileAtomic(EntryPath(stage, key), w.data(), &error)) {
    // Persisting is an optimisation; a full disk must not kill the sweep.
    std::fprintf(stderr, "run cache: %s (entry not persisted)\n", error.c_str());
  }
}

}  // namespace ppfr::runner
