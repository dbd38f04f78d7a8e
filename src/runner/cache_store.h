#ifndef PPFR_RUNNER_CACHE_STORE_H_
#define PPFR_RUNNER_CACHE_STORE_H_

#include <cstdint>
#include <string>

namespace ppfr::runner {

// Disk layer under RunCache: one file per (stage, key) holding a versioned,
// checksummed binary payload, so repeated bench invocations across processes
// share trained models, DP/PP contexts and FR solves instead of recomputing
// them. The keys are RunCache's process-stable FNV content hashes, which is
// what makes cross-process sharing sound in the first place.
//
// File contract (all failure modes recover, never crash):
//  * Writes are atomic: payload goes to a unique temp file that is flushed,
//    checked and rename(2)d into place — a concurrent reader sees either
//    the old entry or the complete new one, never a torn file.
//  * Every entry carries a magic/format-version header, the producing
//    build's fingerprint (serialization version + active la::Backend kind —
//    backends are bitwise-deterministic internally but NOT bitwise-equal to
//    each other, so mixing them through one cache would silently break the
//    "identical to a cold run" guarantee), the entry's own key, and an
//    FNV-1a checksum of the payload.
//  * A missing file is a miss. A file with a foreign magic is not ours and
//    is left alone (plain miss; a recompute's Store overwrites it), as is a
//    structurally-intact entry with a different format version, fingerprint
//    or key. A magic-matching file that is truncated or checksum-failing is
//    CORRUPT: it is deleted before reporting the miss so a crashed writer
//    or bit rot can never wedge a key permanently.
//
// Concurrency: Load/Store are safe from any number of threads and processes
// sharing one dir. Processes do not coordinate, so two running the same
// sweep may each compute a stage; the atomic rename makes the last writer
// win with identical deterministic bytes. Crash recovery is re-running the
// sweep against the same dir: every stage a killed run persisted loads back.
class CacheStore {
 public:
  // Empty dir = disabled (every Load misses, Store is a no-op). A non-empty
  // dir is created (recursively) on first use; an uncreatable dir dies
  // loudly — a requested-but-unusable cache must not silently degrade to
  // retraining everything.
  explicit CacheStore(std::string dir);

  bool enabled() const { return !dir_.empty(); }
  const std::string& dir() const { return dir_; }

  // Reads the payload stored under (stage, key). False on miss; corrupt
  // entries are deleted first (see class contract).
  bool Load(const char* stage, uint64_t key, std::string* payload) const;

  // Persists the payload under (stage, key) atomically. Write failures (disk
  // full, permissions) warn on stderr and leave the cache entry absent; the
  // in-memory result is unaffected.
  void Store(const char* stage, uint64_t key, const std::string& payload) const;

  // "v<format version>|backend=<kind>" of the calling process.
  static std::string Fingerprint();

  // Path of the entry file for (stage, key) — exposed for the corruption
  // tests.
  std::string EntryPath(const char* stage, uint64_t key) const;

 private:
  std::string dir_;
};

}  // namespace ppfr::runner

#endif  // PPFR_RUNNER_CACHE_STORE_H_
