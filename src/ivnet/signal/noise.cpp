#include "ivnet/signal/noise.hpp"

#include "ivnet/common/units.hpp"

namespace ivnet {

namespace {
/// Boltzmann constant [J/K].
constexpr double kBoltzmann = 1.380'649e-23;
/// Standard noise reference temperature [K].
constexpr double kT0 = 290.0;
}  // namespace

double thermal_noise_power(double bandwidth_hz, double noise_figure_db) {
  return kBoltzmann * kT0 * bandwidth_hz * from_db(noise_figure_db);
}

}  // namespace ivnet
