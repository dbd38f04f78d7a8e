#ifndef PPFR_COMMON_FAULT_INJECTION_H_
#define PPFR_COMMON_FAULT_INJECTION_H_

#include <cstdint>
#include <string>

// Deterministic fault injection for exercising the runner's recovery paths
// (per-cell isolation, retry, cache persistence) in tests and CI instead of
// trusting them. Sites are named code locations that ask ShouldFail(site)
// before doing their real work; the spec
//
//   PPFR_FAULT_INJECT=site:every_n[,site:every_n...]
//
// (environment variable, or ConfigureForTest) makes the named site "fire" on
// every n-th hit — hit numbers n, 2n, 3n, ... of a process-wide per-site
// counter. Firing depends only on the hit ORDER, never on time or
// randomness, so a serial sweep under a fixed spec fails at exactly the same
// points in every run. A malformed spec or an unknown site name dies loudly
// at first use (a typo'd site would otherwise silently inject nothing).
namespace ppfr::fault {

// The registered sites. Throwing sites raise RecoverableError(transient);
// the non-throwing site degrades (a skipped persist).
inline constexpr const char* kCacheStoreRead = "cache_store.read";    // throws
inline constexpr const char* kCacheStoreWrite = "cache_store.write";  // skips persist
inline constexpr const char* kStageCell = "stage.cell";               // throws
inline constexpr const char* kTestSite = "test.site";  // tests only, no prod caller

// True when any site is configured (cheap: one atomic load).
bool Enabled();

// Counts a hit at `site` and reports whether this hit fires. Always false
// for unconfigured sites. Thread-safe; under concurrency the hit order (and
// therefore which caller fires) is scheduling-dependent, so deterministic
// tests drive faulted sweeps serially.
bool ShouldFail(const char* site);

// Instrumentation for tests: total hits / fired hits at `site` since the
// last (re)configuration. 0 for unconfigured sites.
int64_t HitCount(const char* site);
int64_t FiredCount(const char* site);

// Replaces the active spec (ignoring the environment variable) and resets
// every counter; "" disables injection entirely. Must not race an in-flight
// sweep. Dies on a malformed spec, exactly like the environment path.
void ConfigureForTest(const std::string& spec);

}  // namespace ppfr::fault

#endif  // PPFR_COMMON_FAULT_INJECTION_H_
