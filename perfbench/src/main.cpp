// The repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir D]
//
// Workloads: x13_sweep and plan_campaign. Each run times its workload's
// set-up several times, then measures rounds sized to take about S
// seconds: every round runs a slice of each phase (sweep, impaired matrix,
// service, planner), two of the workload's own phase, so every end-to-end
// figure samples the whole run (see README.md). With --trace 1
// it instead reports the per-layer figures: the tracing overhead on the
// workload's headline, counters read through an installed
// MetricsRegistry, the spans of every phase (dumped to D in Chrome
// trace_event format) and direct kernel timings.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. Exit status: 0 on a correct result, 4 on a result with a
// failed output check (still printed), 2 on a usage error, 3 on an
// over-subscribed configuration, 1 on an exception.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/sim/batch_pipeline.hpp"
#include "ivnet/signal/gauss.hpp"
#include "layers.hpp"
#include "phases.hpp"

namespace {

using namespace perfbench;

const std::vector<std::string> kEndToEnd = {
    "setup_s",        "peak_rss_mb",  "sessions_per_s", "matrix_sessions_per_s",
    "saturation_rps", "slo_rate_rps", "plan_n64_s",     "plan_n128_s",
    "replan_ms",      "campaign_s",   "resume_ms"};

const std::vector<std::string> kPerLayer = {
    "signal.gauss.lanes_ns_per_draw",
    "signal.gauss.scalar_ns_per_draw",
    "common.rng.normal_ns",
    "gen2.pie_encode_us",
    "gen2.pie_decode_us",
    "gen2.fm0_modulate_us",
    "gen2.fm0_decode_us",
    "gen2.miller_decode_us",
    "gen2.crc16_ns",
    "gen2.tag_sm_us",
    "signal.correlate.preamble_us",
    "impair.chain_us",
    "sim.batch_pipeline.session_us_per_trial",
    "sim.batch_pipeline.ber_us_per_trial",
    "impair.waterfall_self_share",
    "sim.batch_pipeline.lockstep_share",
    "impair.session_us",
    "common.parallel.for_overhead_us",
    "common.parallel.efficiency",
    "svc.submit_ns.p50",
    "svc.submit_ns.p99",
    "svc.queue_wait_ms.p50",
    "svc.queue_wait_ms.p99",
    "svc.service_ms.decode",
    "svc.service_ms.inventory",
    "svc.execute_us.decode",
    "svc.execute_us.inventory",
    "svc.gen_lag_ms.p99",
    "svc.nominal_p50_ms",
    "svc.nominal_p90_ms",
    "svc.nominal_p99_ms",
    "svc.accepted",
    "svc.rejected",
    "cib.delta_objective.move_us.n64",
    "cib.delta_objective.move_us.n128",
    "cib.delta_objective.full_score_ms.n64",
    "cib.optimizer.evals",
    "cib.objective.peak_envelope_us",
    "sim.campaign.cell_compute_ms",
    "sim.campaign.journal_append_ms",
    "sim.campaign.journal_read_us_per_record",
    "obs.trace_overhead_pct"};

constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;
/// Every run measures at least this many rounds, so the planner plans
/// both N = 64 and N = 128.
constexpr std::size_t kMinRounds = 2;

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) return 2;
  const std::size_t cpus = host_cpus();
  const std::size_t threads = opt.threads == 0 ? cpus : opt.threads;
  // Load comes from one process and never needs more threads than the
  // host has: the service runs threads - 1 workers plus the generator.
  if (threads > cpus || threads < 2) {
    std::fprintf(stderr,
                 "perfbench: %zu threads requested on %zu CPUs: the service "
                 "needs >= 1 worker plus the generator and at most nproc "
                 "threads in total; refusing to measure\n",
                 threads, cpus);
    return 3;
  }

  Report report;
  SpanLog spans(opt.trace);
  PhaseContext ctx{report, spans, opt.seed, threads,
                   opt.out_dir + "/work-" + opt.workload};
  SweepPhase sweep(ctx);
  MatrixPhase matrix(ctx);
  ServePhase serve(ctx);
  PlanPhase plan(ctx);
  // Every run reports every end-to-end metric, so it runs every phase.
  // The workload names the phase that gets two slices a round, whose
  // set-up is timed and whose headline carries the tracing overhead. The
  // two workloads are the mechanism/bypass pair for the session layer:
  // x13_sweep is AWGN and Gen2 bound and never touches cib or the
  // journal; plan_campaign is cib and journal bound with no AWGN or Gen2.
  //
  // A run measures a fixed number of rounds, so every run does the same
  // work: --seconds over the workload's round length on a 4-vCPU Xeon VM
  // (x13_sweep ~12 s, plan_campaign ~15 s, whose two cold plans take 7 s),
  // rounded, at least kMinRounds.
  struct Workload {
    Phase* phase;
    double round_s;
  };
  const std::vector<Phase*> phases = {&sweep, &matrix, &serve, &plan};
  const std::map<std::string, Workload> workloads = {
      {"x13_sweep", {&sweep, 12.0}},
      {"plan_campaign", {&plan, 15.0}},
  };
  const auto own = workloads.find(opt.workload);
  if (own == workloads.end()) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  Phase* const main_phase = own->second.phase;
  const std::size_t rounds = std::max(
      kMinRounds,
      static_cast<std::size_t>(std::lround(opt.seconds / own->second.round_s)));

  report.note("workload", opt.workload);
  report.note("seed", static_cast<double>(opt.seed));
  report.note("seconds", opt.seconds);
  report.note("trace", opt.trace ? 1.0 : 0.0);
  report.note("nproc", static_cast<double>(cpus));
  report.note("threads", static_cast<double>(threads));
  report.note("compiler", compiler_id());
  report.note("flags", compile_flags());
  report.note("build_type", build_type());
  report.note("gauss_simd", ivnet::signal::gauss_simd_enabled() ? 1.0 : 0.0);
  report.note("x13.threads", 1.0);
  report.note("x13.batch", static_cast<double>(kSweepBatch));
  report.note("matrix.threads", static_cast<double>(threads));
  report.note("matrix.batch", 1.0);
  report.note("serve.workers_plus_generator", static_cast<double>(threads));
  report.note("plan.threads", static_cast<double>(threads));

  try {
    const long root = spans.begin("run", -1, opt.seed);
    // Set-up is timed at least kSetupReps times and for at least
    // kSetupSeconds, before anything else runs: a 60 ms set-up is as noisy
    // as the host is over 60 ms. (Set-ups timed after the rounds are
    // slower by up to 1.6x, so they are not pooled with these.)
    std::vector<double> setups;
    {
      ScopedSpan s(spans, "setup", root);
      const double setup_start = now_s();
      while (setups.size() < kSetupReps ||
             now_s() - setup_start < kSetupSeconds) {
        const double t0 = now_s();
        main_phase->setup();
        setups.push_back(now_s() - t0);
      }
    }
    report.metric("setup_s", median(setups), "s");
    report.note("setup_s.iqr_share", iqr_share(setups));
    report.note("setup_s.reps", static_cast<double>(setups.size()));

    // A traced run installs a MetricsRegistry and a wall-clock tracer for
    // the phases; an untraced run installs nothing.
    ivnet::obs::MetricsRegistry registry;
    ivnet::obs::Tracer tracer(ivnet::obs::TraceClock::kWall);
    const ivnet::obs::Sink sink{&registry, &tracer};
    if (opt.trace) {
      // Tracing overhead on the workload's headline: untraced and traced
      // passes interleaved, median of the per-pair deltas.
      std::vector<double> overhead_pct;
      const int pairs = main_phase == &plan ? 1 : 3;
      ScopedSpan s(spans, "trace_overhead", root);
      for (int p = 0; p < pairs; ++p) {
        ivnet::obs::install_null();
        const double bare = main_phase->headline();
        ivnet::obs::install(sink);
        const double traced = main_phase->headline();
        ivnet::obs::install_null();
        const double worse = main_phase->headline_higher_is_better()
                                 ? (bare - traced) / bare
                                 : (traced - bare) / bare;
        overhead_pct.push_back(100.0 * worse);
      }
      report.metric("obs.trace_overhead_pct", median(overhead_pct), "%");
      ivnet::obs::install(sink);
    }

    for (Phase* phase : phases) {
      if (phase != main_phase) phase->setup();
    }
    // The batch counters are read around the workload's own slices only:
    // the lockstep share is that of the workload's phase.
    double lock = 0.0;
    double fall = 0.0;
    const auto batch_counters = [&registry] {
      return std::pair<double, double>(
          static_cast<double>(
              registry.counter("batch.lockstep_trials").value()),
          static_cast<double>(
              registry.counter("batch.fallback_trials").value()));
    };
    const double start = now_s();
    for (std::size_t r = 0; r < rounds; ++r) {
      ScopedSpan round(spans, "round", root, r);
      for (Phase* phase : phases) {
        const int slices = phase == main_phase ? 2 : 1;
        for (int i = 0; i < slices; ++i) {
          const auto before = batch_counters();
          phase->slice(round.index());
          if (phase == main_phase) {
            const auto after = batch_counters();
            lock += after.first - before.first;
            fall += after.second - before.second;
          }
        }
      }
    }
    report.note("rounds", static_cast<double>(rounds));
    report.note("measured_s", now_s() - start);
    // Share of batch-engine trials of the workload's own phase that ran in
    // lockstep lanes (0 when no trial went through the batch engine).
    report.metric("sim.batch_pipeline.lockstep_share",
                  lock + fall > 0.0 ? lock / (lock + fall) : 0.0, "share");
    for (Phase* phase : phases) phase->finish();
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");

    if (opt.trace) {
      ivnet::obs::install_null();
      LayerInputs inputs;
      inputs.seed = opt.seed;
      inputs.threads = threads;
      inputs.work_dir = ctx.work_dir;
      inputs.offsets64 = plan.offsets(64);
      inputs.offsets128 = plan.offsets(128);
      inputs.campaign_journal = plan.campaign_journal();
      {
        ScopedSpan s(spans, "layers", root);
        measure_layers(inputs, report);
      }
      spans.end(root);

      const std::string stem =
          opt.out_dir + "/trace-" + opt.workload + "-" +
          std::to_string(opt.seed);
      const bool wrote =
          write_file(stem + ".bench.json", spans.chrome_json()) &&
          write_file(stem + ".lib.json", tracer.to_json()) &&
          write_file(stem + ".metrics.json", registry.snapshot_json());
      report.check(wrote, "trace: could not write the span dumps");
      report.note("trace.spans", static_cast<double>(spans.spans().size()));
      report.note("trace.files", stem + ".{bench,lib,metrics}.json");
    }
  } catch (const std::exception& e) {
    ivnet::obs::install_null();
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  ivnet::set_parallel_threads(0);

  // Exactly the metrics the mode promises, each present and finite.
  report.keep_only(opt.trace ? kPerLayer : kEndToEnd);
  report.print();
  return report.correct() ? 0 : 4;
}
