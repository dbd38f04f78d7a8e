#include "common/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/check.h"

namespace ppfr {
namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t value) {
  // One SplitMix64 step over the combined state; the odd multiplier keeps
  // (seed, value) pairs from colliding under simple arithmetic relations.
  uint64_t state = seed ^ (value * 0xd6e8feb86659fd93ULL + 0x2545f4914f6cdd1dULL);
  return SplitMix64(&state);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : state_) s = SplitMix64(&sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

double Rng::Uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * Uniform(); }

int64_t Rng::UniformInt(int64_t n) {
  PPFR_CHECK_GT(n, 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t un = static_cast<uint64_t>(n);
  const uint64_t limit = UINT64_MAX - UINT64_MAX % un;
  uint64_t x;
  do {
    x = NextU64();
  } while (x >= limit);
  return static_cast<int64_t>(x % un);
}

double Rng::Normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = Uniform();
  while (u1 <= 1e-300) u1 = Uniform();
  const double u2 = Uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

bool Rng::Bernoulli(double p) { return Uniform() < p; }

double Rng::Laplace(double scale) {
  PPFR_CHECK_GT(scale, 0.0);
  const double u = Uniform() - 0.5;
  return -scale * std::copysign(std::log(1.0 - 2.0 * std::fabs(u)), u);
}

std::vector<int> Rng::SampleWithoutReplacement(int n, int k) {
  PPFR_CHECK_GE(n, k);
  PPFR_CHECK_GE(k, 0);
  // Partial Fisher-Yates over the pool [0, n): draw i swaps pool slots i and
  // j >= i and keeps slot i. A slot no draw has displaced still holds its own
  // index, and no draw reads a slot below i again, so only the displaced
  // slots are stored: at most k of them, in an open-addressing table of at
  // least twice that many entries. O(k) time and memory for any n.
  struct Slot {
    int index = -1;  // -1: empty
    int value = 0;
  };
  const int bits = std::bit_width(static_cast<unsigned>(k));
  const size_t mask = (size_t{2} << bits) - 1;
  std::vector<Slot> displaced(mask + 1);
  const auto find = [&](int index) -> Slot& {
    size_t h = (static_cast<uint64_t>(index) * 0x9e3779b97f4a7c15ULL) >> (63 - bits);
    while (displaced[h].index >= 0 && displaced[h].index != index) h = (h + 1) & mask;
    return displaced[h];
  };
  std::vector<int> out(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    const int j = i + static_cast<int>(UniformInt(n - i));
    Slot& at_j = find(j);
    const Slot& at_i = find(i);
    out[static_cast<size_t>(i)] = at_j.index == j ? at_j.value : j;
    const int value_i = at_i.index == i ? at_i.value : i;
    at_j = {j, value_i};
  }
  return out;
}

Rng Rng::Fork() { return Rng(NextU64()); }

}  // namespace ppfr
