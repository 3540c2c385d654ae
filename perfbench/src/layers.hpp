// Per-layer figures of a traced run: each module's public kernels called
// directly from here, at the shapes the workloads feed them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct LayerInputs {
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string work_dir;
  /// Offsets of the run's cold N=64 / N=128 plans.
  std::vector<double> offsets64;
  std::vector<double> offsets128;
  /// A complete campaign journal to time the reader on.
  std::string campaign_journal;
};

/// Times every kernel and records its per-layer metric into `report`.
void measure_layers(const LayerInputs& in, Report& report);

}  // namespace perfbench
