#include "common/fault_injection.h"

#include <atomic>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

#include "common/check.h"

namespace ppfr::fault {
namespace {

constexpr const char* kKnownSites[] = {kCacheStoreRead, kCacheStoreWrite,
                                       kStageCell, kTestSite};

bool IsKnownSite(const std::string& name) {
  for (const char* site : kKnownSites) {
    if (name == site) return true;
  }
  return false;
}

std::string KnownSiteList() {
  std::string out;
  for (const char* site : kKnownSites) {
    if (!out.empty()) out += ", ";
    out += site;
  }
  return out;
}

struct SiteState {
  uint64_t every_n = 0;
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> fired{0};
};

struct Config {
  // std::map nodes are pointer-stable, so concurrent ShouldFail calls may
  // hammer the atomics while the (immutable-after-parse) structure is shared.
  std::map<std::string, SiteState> sites;
};

// Replaced wholesale by ConfigureForTest. A replaced config is retired, not
// deleted, so a racing reader can never touch freed memory; the retired list
// keeps it reachable, so leak checkers do not flag it. Configs are tiny and
// reconfiguration is a test-only operation.
std::atomic<Config*> g_config{nullptr};
std::atomic<bool> g_enabled{false};
std::once_flag g_env_once;
std::mutex g_retired_mu;

std::vector<Config*>& RetiredConfigs() {
  static auto* retired = new std::vector<Config*>();
  return *retired;
}

Config* ParseSpec(const std::string& spec) {
  auto config = new Config();
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) continue;
    const size_t colon = entry.find(':');
    PPFR_CHECK(colon != std::string::npos)
        << "PPFR_FAULT_INJECT entry '" << entry
        << "' is not site:every_n (e.g. cache_store.read:3)";
    const std::string site = entry.substr(0, colon);
    const std::string count = entry.substr(colon + 1);
    PPFR_CHECK(IsKnownSite(site)) << "PPFR_FAULT_INJECT names unknown site '"
                                  << site << "'; known sites: " << KnownSiteList();
    char* parse_end = nullptr;
    const unsigned long long n = std::strtoull(count.c_str(), &parse_end, 10);
    PPFR_CHECK(parse_end != nullptr && *parse_end == '\0' && !count.empty() && n > 0)
        << "PPFR_FAULT_INJECT site '" << site << "' wants a positive every_n, got '"
        << count << "'";
    config->sites[site].every_n = n;
  }
  return config;
}

void Install(Config* config) {
  if (Config* old = g_config.exchange(config, std::memory_order_acq_rel)) {
    std::lock_guard<std::mutex> lock(g_retired_mu);
    RetiredConfigs().push_back(old);
  }
  g_enabled.store(!config->sites.empty(), std::memory_order_release);
}

void EnsureEnvLoaded() {
  std::call_once(g_env_once, [] {
    // ConfigureForTest may already have installed a spec before the first
    // prod-site hit; the env must not clobber it.
    if (g_config.load(std::memory_order_acquire) != nullptr) return;
    const char* env = std::getenv("PPFR_FAULT_INJECT");
    Install(ParseSpec(env == nullptr ? "" : env));
  });
}

SiteState* FindSite(const char* site) {
  EnsureEnvLoaded();
  Config* config = g_config.load(std::memory_order_acquire);
  if (config == nullptr) return nullptr;
  auto it = config->sites.find(site);
  return it == config->sites.end() ? nullptr : &it->second;
}

}  // namespace

bool Enabled() {
  EnsureEnvLoaded();
  return g_enabled.load(std::memory_order_acquire);
}

bool ShouldFail(const char* site) {
  if (!g_enabled.load(std::memory_order_acquire) && !Enabled()) return false;
  SiteState* state = FindSite(site);
  if (state == nullptr) return false;
  const int64_t hit = state->hits.fetch_add(1) + 1;
  if (hit % static_cast<int64_t>(state->every_n) != 0) return false;
  state->fired.fetch_add(1);
  return true;
}

int64_t HitCount(const char* site) {
  SiteState* state = FindSite(site);
  return state == nullptr ? 0 : state->hits.load();
}

int64_t FiredCount(const char* site) {
  SiteState* state = FindSite(site);
  return state == nullptr ? 0 : state->fired.load();
}

void ConfigureForTest(const std::string& spec) {
  // Force the once-flag to resolve first so a later EnsureEnvLoaded cannot
  // clobber the test spec with the environment's.
  EnsureEnvLoaded();
  Install(ParseSpec(spec));
}

}  // namespace ppfr::fault
