#include "ivnet/signal/noise.hpp"

#include <cmath>

#include "ivnet/common/units.hpp"

namespace ivnet {

namespace {
/// Boltzmann constant [J/K].
constexpr double kBoltzmann = 1.380'649e-23;
/// Standard noise reference temperature [K].
constexpr double kT0 = 290.0;
}  // namespace

void add_awgn(Waveform& wave, double noise_power, Rng& rng) {
  const double sigma = std::sqrt(noise_power / 2.0);
  for (auto& s : wave.samples) {
    s += cplx{rng.normal(0.0, sigma), rng.normal(0.0, sigma)};
  }
}

double thermal_noise_power(double bandwidth_hz, double noise_figure_db) {
  return kBoltzmann * kT0 * bandwidth_hz * from_db(noise_figure_db);
}

}  // namespace ivnet
