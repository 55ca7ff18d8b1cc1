#include "sim/random.hpp"

#include <cmath>

namespace amoeba::sim {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

double Rng::exponential(double lambda) {
  AMOEBA_EXPECTS(lambda > 0.0);
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -std::log1p(-u) / lambda;
}

double Rng::normal() {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return u * factor;
}

double Rng::lognormal_mean_cv(double mean, double cv) {
  AMOEBA_EXPECTS(mean > 0.0);
  AMOEBA_EXPECTS(cv >= 0.0);
  if (cv == 0.0) return mean;
  // If X ~ LogNormal(m, s^2): E[X] = exp(m + s^2/2), CV^2 = exp(s^2) - 1.
  const double s2 = std::log1p(cv * cv);
  const double m = std::log(mean) - 0.5 * s2;
  return std::exp(m + std::sqrt(s2) * normal());
}

Rng Rng::fork(std::uint64_t stream_id) const noexcept {
  std::uint64_t mix = s_[0] ^ rotl(s_[2], 29) ^ (stream_id * 0xda942042e4dd58b5ULL);
  return Rng(splitmix64(mix));
}

}  // namespace amoeba::sim
