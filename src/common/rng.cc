#include "common/rng.h"

#include <bit>
#include <cmath>
#include <numbers>

#include "common/check.h"

namespace ppfr {

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
