// The four measured phases. Each one owns its inputs (made from the run
// seed in setup()), measures through the library's public entry points in
// slices, and records its end-to-end metrics, per-layer figures and output
// checks into the run's Report when the run ends. A run interleaves the
// slices of every phase round by round, so each metric samples the whole
// run rather than one stretch of it.
//
// Thread budget: a phase never runs more threads than `threads` (which
// main.cpp has already checked against the host's CPU count): the sweep
// runs on 1 thread, the matrix and planner on `threads`, and the service
// on `threads - 1` workers plus the generator, which is the calling
// thread.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/sim/campaign.hpp"
#include "ivnet/sim/planner.hpp"
#include "ivnet/svc/loadgen.hpp"

namespace perfbench {

struct PhaseContext {
  Report& report;
  SpanLog& spans;
  std::uint64_t seed = 1;
  std::size_t threads = 1;
  std::string work_dir;  ///< journals live here
};

/// A phase: setup() may be called repeatedly (the run times it several
/// times); slice() is one measured step (a few seconds at most), called
/// once or more per round; finish() records the metrics and output checks
/// of every slice run. headline() is one pass of the phase's headline
/// figure, used to measure the tracing overhead.
class Phase {
 public:
  virtual ~Phase() = default;
  virtual void setup() = 0;
  virtual void slice(long parent_span) = 0;
  virtual void finish() = 0;
  virtual double headline() = 0;
  /// True when a larger headline value is better.
  virtual bool headline_higher_is_better() const { return true; }
};

// --- x13_sweep: BER waterfall, 1 thread, lockstep batch 8 ----------------
ivnet::WaterfallConfig x13_config(std::size_t trials_per_point,
                                  std::size_t batch);
inline constexpr std::size_t kSweepTrialsPerPoint = 1024;
inline constexpr std::size_t kSweepBatch = 8;

class SweepPhase : public Phase {
 public:
  explicit SweepPhase(PhaseContext ctx) : ctx_(ctx) {}
  void setup() override;
  void slice(long parent_span) override;
  void finish() override;
  double headline() override;

 private:
  std::size_t sessions_per_pass() const;
  /// One sweep; returns sessions/s.
  double pass(std::vector<ivnet::WaterfallPoint>* points);
  PhaseContext ctx_;
  ivnet::WaterfallConfig config_;
  std::uint64_t rng_seed_ = 0;
  std::vector<double> rates_;  ///< sessions/s of every pass
  std::vector<ivnet::WaterfallPoint> points_;
  std::string first_json_;
  bool stable_ = true;
};

// --- matrix_impaired: media x SNR x antennas, scalar path, all threads ---
ivnet::MatrixConfig matrix_config(std::size_t trials_per_cell);
inline constexpr std::size_t kMatrixTrialsPerCell = 128;

class MatrixPhase : public Phase {
 public:
  explicit MatrixPhase(PhaseContext ctx) : ctx_(ctx) {}
  void setup() override;
  void slice(long parent_span) override;
  void finish() override;
  double headline() override;

 private:
  std::size_t sessions_per_pass() const;
  double pass(std::vector<ivnet::MatrixCell>* cells);
  PhaseContext ctx_;
  ivnet::MatrixConfig config_;
  std::uint64_t rng_seed_ = 0;
  std::vector<double> rates_;
  std::vector<ivnet::MatrixCell> cells_;
  std::string first_json_;
  bool stable_ = true;
};

// --- serve_mmpp: InventoryService under a 2-state MMPP -------------------
/// Offered rates are absolute and fixed here, never derived from a run.
inline constexpr double kNominalRps = 3000.0;
/// Requests of each slice's nominal chunk; chunks cycle through
/// kNominalSchedules seed-derived schedules.
inline constexpr std::size_t kNominalRequests = 4000;
inline constexpr std::size_t kNominalSchedules = 16;
/// The ladder's fixed grid: kLadderBaseRps * 1.05^k, k < kLadderPoints
/// (4000 to ~28000 req/s). Each slice bisects it for the highest passing
/// point.
inline constexpr double kLadderBaseRps = 4000.0;
inline constexpr double kLadderStep = 1.05;
inline constexpr std::size_t kLadderPoints = 41;
inline double ladder_rps(std::size_t k) {
  return std::round(kLadderBaseRps * std::pow(kLadderStep, double(k)));
}
inline constexpr std::size_t kRungRequests = 3000;
/// Latencies are taken per window of this many requests (each window has
/// 10 samples beyond its p99). The run reports p50 and p90 as the
/// kWindowQuantile quantile over its windows and p99 as the median window,
/// so host stalls spoil windows, not the figure.
inline constexpr std::size_t kLatencyWindow = 1000;
inline constexpr double kWindowQuantile = 0.25;
inline constexpr double kSloLimitS = 0.020;  ///< p99 limit of the ladder
/// Closed-loop requests of each slice.
inline constexpr std::size_t kClosedRequests = 6000;
inline constexpr std::size_t kQueueDepth = 256;
/// Closed-loop requests of the set-up's warm-up pass.
inline constexpr std::size_t kWarmRequests = 512;
/// Every kReplayStride-th closed-loop request of the first slice is
/// re-executed inline with execute_request and must hash identically.
inline constexpr std::size_t kReplayStride = 4;

ivnet::svc::LoadGenConfig mmpp_config(double rate_rps, std::size_t requests,
                                      std::uint64_t seed);

/// Figures of one or more open-loop runs of the service.
struct OpenLoopResult {
  std::size_t submitted = 0;
  std::size_t accepted = 0;
  std::size_t shed = 0;
  std::vector<double> latency_s;  ///< due-time latencies, sheds = +inf
  /// p50, p90 and p99 of each kLatencyWindow-request window, arrival
  /// order.
  std::vector<double> window_p50_s;
  std::vector<double> window_p90_s;
  std::vector<double> window_p99_s;
  /// Fraction over kSloLimitS of each window.
  std::vector<double> window_miss;
  /// Median latency of the last window: a growing backlog shows here.
  double last_window_p50_s = kInf;
  std::vector<double> queue_wait_s;
  std::vector<double> service_decode_s;
  std::vector<double> service_inventory_s;
  std::vector<double> submit_s;
  std::vector<double> lag_s;

  /// Appends another run of the same offered load.
  void absorb(const OpenLoopResult& o);
};

class ServePhase : public Phase {
 public:
  explicit ServePhase(PhaseContext ctx) : ctx_(ctx) {}
  void setup() override;
  void slice(long parent_span) override;
  void finish() override;
  double headline() override;

 private:
  ivnet::svc::ServiceConfig service_config() const;
  double closed_loop(long parent_span, bool replay);
  Rung measure_rung(std::size_t k, long parent_span);
  OpenLoopResult open_loop(const std::vector<ivnet::svc::ScheduledRequest>&
                               schedule,
                           const char* span_name, long parent_span,
                           bool probe);

  PhaseContext ctx_;
  std::vector<ivnet::svc::ScheduledRequest> closed_;
  std::vector<std::vector<ivnet::svc::ScheduledRequest>> nominal_;
  std::vector<std::vector<ivnet::svc::ScheduledRequest>> rungs_;
  std::size_t slices_ = 0;
  std::vector<double> saturation_;  ///< closed-loop req/s of every slice
  std::vector<double> slo_;         ///< SLO rate of every slice's ladder
  OpenLoopResult nominal_result_;   ///< every slice's nominal chunk
  std::size_t rungs_run_ = 0;
  std::size_t accepted_ = 0;  ///< over every service instance of a run
  std::size_t rejected_ = 0;
};

// --- plan_campaign: cold plans, journal re-plan, campaigns, resume -------
inline constexpr std::size_t kCampaignGainTrials = 3000;
inline constexpr std::size_t kCampaignRangeTrials = 150;
/// Records of other cells appended to each plan journal and to the fig13
/// campaign journal after the cold writes: re-plans and resumes read a
/// store holding many records, not two.
inline constexpr std::size_t kJournalPadding = 2000;
/// Re-plans and resumes are repeated for this long in every slice (they
/// take micro- to milliseconds each) and averaged over the run.
inline constexpr double kReplanSeconds = 0.15;
inline constexpr double kResumeSeconds = 0.15;

ivnet::FrequencyPlanRequest plan_request(std::size_t antennas);

/// Slices alternate the cold plan between N = 64 and N = 128; each slice
/// also re-plans N = 64 through its journal, writes both campaigns cold
/// and resumes them.
class PlanPhase : public Phase {
 public:
  explicit PlanPhase(PhaseContext ctx) : ctx_(ctx) {}
  void setup() override;
  void slice(long parent_span) override;
  void finish() override;
  double headline() override;
  bool headline_higher_is_better() const override { return false; }

  /// Offsets of the last cold plans (the per-layer delta-objective
  /// kernels are timed on them).
  const std::vector<double>& offsets(std::size_t antennas) const {
    return antennas == 64 ? offsets64_ : offsets128_;
  }
  const std::string& campaign_journal() const { return journal13_; }

 private:
  std::string path(const std::string& name) const;
  PhaseContext ctx_;
  ivnet::CampaignSpec fig9_;
  ivnet::CampaignSpec fig13_;
  std::string journal64_, journal128_, journal9_, journal13_;
  std::vector<double> offsets64_, offsets128_;
  std::string plan64_json_;  ///< the last cold N = 64 plan record
  std::size_t slices_ = 0;
  std::vector<double> n64_, n128_, replan_, campaign_, resume_;
  std::size_t evals64_ = 0, evals128_ = 0;
};

}  // namespace perfbench
