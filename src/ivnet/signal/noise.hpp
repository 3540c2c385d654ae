// Receiver thermal noise floor.
#pragma once

namespace ivnet {

/// Thermal noise power [W] over `bandwidth_hz` at 290 K with the given
/// receiver noise figure: P = kTB * NF.
double thermal_noise_power(double bandwidth_hz, double noise_figure_db);

}  // namespace ivnet
