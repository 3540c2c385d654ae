// Machine-readable perf tracking: times the hot kernels and writes
// BENCH_kernels.json (ns/op for envelope, peak, expected-peak at
// N = 2/5/10) so the perf trajectory is comparable across PRs. Also
// emits a metrics-registry snapshot (<output>_metrics.json) covering
// the instrumented kernels' counters.
//
//   ./bench_kernels_json [output-path]   (default: BENCH_kernels.json)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/common/json.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/obs/obs.hpp"

namespace {

using namespace ivnet;

volatile double g_sink = 0.0;  // defeat dead-code elimination

/// Runs fn repeatedly until ~kMinWallS elapsed; returns ns per call.
template <typename Fn>
double time_ns_per_op(Fn&& fn) {
  constexpr double kMinWallS = 0.15;
  // Warm-up (also sizes the batch so the clock is read rarely).
  fn();
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    if (elapsed.count() >= kMinWallS) {
      return elapsed.count() * 1e9 / static_cast<double>(batch);
    }
    batch *= 4;
  }
}

struct Result {
  std::string name;
  int n;
  double ns_per_op;
};

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.json";
  const auto full = FrequencyPlan::paper_default();
  constexpr std::size_t kEnvelopeSteps = 2048;
  constexpr std::size_t kTrials = 32;

  std::vector<Result> results;
  for (const int n : {2, 5, 10}) {
    const auto plan = full.truncated(static_cast<std::size_t>(n));
    const auto& offsets = plan.offsets_hz();
    Rng rng(1);
    std::vector<double> phases(offsets.size());
    for (auto& p : phases) p = rng.phase();

    results.push_back({"envelope", n, time_ns_per_op([&] {
                         g_sink = cib_envelope(offsets, phases, {}, 1.0,
                                               kEnvelopeSteps)
                                      .back();
                       })});
    results.push_back({"peak", n, time_ns_per_op([&] {
                         g_sink = peak_envelope(offsets, phases, 1.0);
                       })});
    results.push_back({"expected_peak", n, time_ns_per_op([&] {
                         Rng trial_rng(2);
                         g_sink = expected_peak_amplitude(offsets, kTrials,
                                                          trial_rng);
                       })});
  }

  JsonWriter w;
  w.begin_object();
  w.field("bench", "kernels");
  w.field("threads", parallel_thread_count());
  w.field("envelope_steps", kEnvelopeSteps);
  w.field("expected_peak_trials", kTrials);
  w.key("results").begin_array();
  for (const auto& r : results) {
    w.begin_object();
    w.field("name", r.name);
    w.field("n", r.n);
    w.field("ns_per_op", r.ns_per_op);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // One instrumented pass AFTER the timing loops (which ran against the
  // null sink, measuring the production configuration): snapshot the
  // kernels' telemetry next to the timing file.
  {
    obs::MetricsRegistry registry;
    obs::install(obs::Sink{.metrics = &registry});
    for (const int n : {2, 5, 10}) {
      const auto plan = full.truncated(static_cast<std::size_t>(n));
      Rng trial_rng(2);
      g_sink = expected_peak_amplitude(plan.offsets_hz(), kTrials, trial_rng);
    }
    obs::install_null();
    const std::string metrics_path =
        (out_path.size() > 5 && out_path.rfind(".json") == out_path.size() - 5
             ? out_path.substr(0, out_path.size() - 5)
             : out_path) +
        "_metrics.json";
    std::FILE* mf = std::fopen(metrics_path.c_str(), "w");
    if (mf != nullptr) {
      const std::string snap = registry.snapshot_json();
      std::fwrite(snap.data(), 1, snap.size(), mf);
      std::fputc('\n', mf);
      std::fclose(mf);
      std::printf("wrote %s\n", metrics_path.c_str());
    }
  }
  for (const auto& r : results) {
    std::printf("  %-14s n=%-2d %12.0f ns/op\n", r.name.c_str(), r.n,
                r.ns_per_op);
  }
  return 0;
}
