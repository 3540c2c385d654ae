// The impaired Gen2 session engine (see batch_pipeline.hpp).
//
// A session is a small state machine per lane: charge, then one command
// exchange per stage (Query -> RN16, ACK -> EPC), each retried up to
// RecoveryPolicy::max_attempts times. A round of the engine is one command
// attempt of every live lane, in three phases:
//   A. retry bookkeeping, the lane's attempt stream, the PIE command and
//      its downlink record (shared-medium bursts, then the AWGN fill);
//   C. the tag's envelope slicer and state machine, the Query slot chase,
//      and the uplink record of every lane whose tag replied (modulation,
//      the reader-RX impairments, then the AWGN fill);
//   E. the brownout reply gate, the reader's decode, and the stage
//      transitions.
// Every lane draws only from its own streams, in the same order at any
// batch size, so K lanes produce the bytes of K lone sessions.
#include "ivnet/sim/batch_pipeline.hpp"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>

#include "ivnet/common/units.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "ivnet/impair/impairment.hpp"
#include "ivnet/impair/recovery.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/reader/inventory.hpp"
#include "ivnet/signal/gauss.hpp"

namespace ivnet {
namespace {

std::size_t g_default_batch_override = 0;
bool g_default_batch_overridden = false;

/// Coherent array gain of the link's antennas [dB].
double array_gain_db(const ImpairedLinkConfig& link) {
  return 10.0 * std::log10(static_cast<double>(
                    std::max<std::size_t>(1, link.num_antennas)));
}

/// Uplink SNR budget: array gain once, tissue loss twice (the backscatter
/// round trip crosses the tissue both ways).
double uplink_budget_db(const ImpairedLinkConfig& link) {
  return link.snr_db + array_gain_db(link) - 2.0 * link.medium_loss_db;
}

std::vector<double> modulate_uplink(const ImpairedLinkConfig& link,
                                    const gen2::Bits& bits) {
  return link.uplink == gen2::Miller::kFm0
             ? gen2::fm0_modulate(bits, link.blf_hz, link.sample_rate_hz)
             : gen2::miller_modulate(link.uplink, bits, link.blf_hz,
                                     link.sample_rate_hz);
}

/// The reader's uplink decode; `valid` also requires all `num_bits` bits.
struct UplinkDecode {
  bool valid = false;
  gen2::Bits bits;
  double correlation = 0.0;
};

UplinkDecode decode_uplink(const ImpairedLinkConfig& link,
                           std::span<const double> rx, std::size_t num_bits) {
  const double fs = link.sample_rate_hz;
  UplinkDecode out;
  if (link.uplink == gen2::Miller::kFm0) {
    auto d = gen2::fm0_decode(rx, num_bits, link.blf_hz, fs,
                              link.min_correlation);
    out = {d.valid, std::move(d.bits), d.preamble_correlation};
  } else {
    auto d = gen2::miller_decode(link.uplink, rx, num_bits, link.blf_hz, fs,
                                 link.min_correlation);
    out = {d.valid, std::move(d.bits), d.preamble_correlation};
  }
  out.valid = out.valid && out.bits.size() == num_bits;
  return out;
}

/// One lane needing an AWGN fill this round: `src` holds the record before
/// noise (often a shared cached envelope), `dst` is the lane's rx buffer
/// (may alias src for in-place fills), and `rng` is the lane's attempt
/// stream. Writing fma(sigma, g, src[i]) straight to dst is bitwise-
/// identical to a copy followed by apply_awgn's in-place add.
struct FillSlot {
  Rng* rng;
  double sigma;
  const double* src;
  double* dst;
  std::size_t size;
};

/// AWGN over a round's fill slots: lanes whose records have equal length
/// go through the packed sampler in groups of kGaussLanes; leftovers and
/// odd sizes take the scalar loop. Any grouping is bitwise-safe — each
/// lane draws only from its own stream — so grouping is purely a
/// throughput decision.
void fill_awgn_groups(std::vector<FillSlot>& slots) {
  std::stable_sort(slots.begin(), slots.end(),
                   [](const FillSlot& a, const FillSlot& b) {
                     return a.size < b.size;
                   });
  std::size_t i = 0;
  while (i < slots.size()) {
    std::size_t j = i;
    while (j < slots.size() && slots[j].size == slots[i].size) ++j;
    const std::size_t n = slots[i].size;
    while (j - i >= signal::kGaussLanes) {
      Rng* rngs[signal::kGaussLanes];
      double sigmas[signal::kGaussLanes];
      const double* src[signal::kGaussLanes];
      double* dst[signal::kGaussLanes];
      for (std::size_t k = 0; k < signal::kGaussLanes; ++k) {
        rngs[k] = slots[i + k].rng;
        sigmas[k] = slots[i + k].sigma;
        src[k] = slots[i + k].src;
        dst[k] = slots[i + k].dst;
      }
      signal::axpy_awgn_lanes_onto(signal::kGaussLanes, rngs, sigmas, src,
                                   dst, n);
      obs::count("batch.lockstep_fills");
      i += signal::kGaussLanes;
    }
    for (; i < j; ++i) {
      signal::axpy_awgn_onto(*slots[i].rng, slots[i].sigma, slots[i].src,
                             {slots[i].dst, n});
      obs::count("batch.scalar_fills");
    }
  }
  slots.clear();
}

/// Make `rx` the record `clean` as received through `chain`, minus the
/// AWGN, which is queued on `fills`. With `shared` (lockstep_batchable:
/// the chain has no stage before AWGN) the noise is written straight from
/// `clean` at its cached power `clean_power`; otherwise rx becomes `clean`
/// through the chain's pre-AWGN stages on `rng`, and the noise lands in
/// place at the impaired record's power — ImpairmentChain::apply's order.
/// `clean` may be `rx` itself.
void stage_record(std::vector<double>& rx, const std::vector<double>& clean,
                  double clean_power, const ImpairmentChain& chain,
                  bool shared, double fs, Rng& rng, ImpairmentTrace* trace,
                  std::vector<FillSlot>& fills) {
  const double snr_db = chain.config().snr_db;
  if (shared) {
    const double sigma = awgn_sigma(clean_power, snr_db);
    if (sigma < 0.0) {
      if (&rx != &clean) rx.assign(clean.begin(), clean.end());
      return;
    }
    rx.resize(clean.size());
    fills.push_back({&rng, sigma, clean.data(), rx.data(), rx.size()});
    return;
  }
  chain.apply_before_awgn(clean, rx, fs, rng, trace);
  const double sigma = awgn_sigma(signal_mean_power(rx), snr_db);
  if (sigma >= 0.0) {
    fills.push_back({&rng, sigma, rx.data(), rx.data(), rx.size()});
  }
}

/// Per-session telemetry, emitted once per lane when it finishes
/// (counters/histograms are order-independent).
void emit_session_telemetry(const LinkSessionReport& report) {
  obs::count("link.sessions");
  obs::count(report.success ? "link.success" : "link.failed");
  obs::observe("link.elapsed_s", report.elapsed_s);
  record_recovery("link", report.recovery);
}

struct Lane {
  std::size_t trial;
  std::uint64_t base;  ///< attempt streams are Rng::stream(base, counter)
  std::uint64_t attempt_counter = 0;
  LinkSessionReport report;
  gen2::TagStateMachine tag;
  AdaptiveQ adaptive;
  BrownoutState rail;  ///< capacitor charge carries across the session
  SessionStage stage = SessionStage::kQuery;
  double stage_t0 = 0.0;
  int attempt = 0;
  std::uint8_t cur_q = 0;
  std::vector<double> ack_env;
  double ack_env_power = 0.0;
  std::uint32_t track = 0;  ///< sim-trace track and its next sequence
  std::uint64_t seq = 0;
  // Round scratch.
  Rng att_rng{0};
  std::vector<double> rx;
  std::optional<gen2::Bits> reply;
  bool done = false;

  Lane(std::size_t t, std::uint64_t b, const gen2::Bits& epc,
       const AdaptiveQConfig& qcfg)
      : trial(t), base(b), tag(epc, b ^ 0x9e3779b97f4a7c15ull),
        adaptive(qcfg) {}

  Rng next_rng() { return Rng::stream(base, attempt_counter++); }
};

/// One batch of lanes over one link config. Everything identical across
/// lanes (the chains, the Query envelopes per q, the EPC reply record) is
/// built once; caching cannot change results, since a cached record is
/// exactly the record a lane would build itself.
class SessionEngine {
 public:
  SessionEngine(const ImpairedLinkConfig& link, DspWorkspace& workspace,
                std::optional<std::uint32_t> track_base)
      : cfg_(link),
        policy_(link.recovery),
        fs_(link.sample_rate_hz),
        shared_(lockstep_batchable(link)),
        track_base_(track_base),
        workspace_(workspace),
        uplink_(uplink_impairments(link)),
        downlink_(downlink_impairments(link)),
        epc_(link.epc.empty() ? default_link_epc() : link.epc),
        epc_frame_(gen2::TagStateMachine(epc_, 0).epc_frame()),
        query_rep_(gen2::QueryRepCommand{}.encode()),
        charge_amp_(link.charge_amplitude_v *
                    std::sqrt(static_cast<double>(
                        std::max<std::size_t>(1, link.num_antennas))) *
                    db_to_amplitude(-link.medium_loss_db)),
        slot_s_(20.0 * link.pie.tari_s),  // QueryRep + T1 + T3
        supply_(workspace.acquire_real(0)) {}

  ~SessionEngine() { workspace_.release(std::move(supply_)); }
  SessionEngine(const SessionEngine&) = delete;
  SessionEngine& operator=(const SessionEngine&) = delete;

  void run(std::size_t lo, std::span<const std::uint64_t> bases,
           const std::function<void(std::size_t, LinkSessionReport&)>& sink);

 private:
  static ImpairmentChain uplink_impairments(const ImpairedLinkConfig& link) {
    ImpairmentConfig im = link.impair;
    im.snr_db = uplink_budget_db(link);
    return ImpairmentChain(im);
  }
  /// The tag's envelope detector has no mixer: the downlink sees the
  /// shared medium (bursts, noise) but not the reader-RX oscillator
  /// impairments, and it sits downlink_snr_advantage_db above the uplink.
  static ImpairmentChain downlink_impairments(const ImpairedLinkConfig& link) {
    ImpairmentConfig im;
    im.snr_db = link.snr_db + array_gain_db(link) - link.medium_loss_db +
                link.downlink_snr_advantage_db;
    im.bursts = link.impair.bursts;
    return ImpairmentChain(im);
  }

  void charge(Lane& lane);
  void begin_stage(Lane& lane, SessionStage stage);
  void end_attempt(Lane& lane);
  void fail_stage(Lane& lane);
  void finish(Lane& lane);
  void send_command(Lane& lane, std::vector<FillSlot>& fills);
  bool take_reply(Lane& lane, std::vector<FillSlot>& fills);
  void decode_reply(Lane& lane);
  const std::vector<double>& query_envelope(std::uint8_t q, double* power);
  const std::vector<double>& epc_record();

  /// Runs `emit` (sim events) on the lane's own track, resuming its
  /// sequence, or on the caller's track when the batch has no track base.
  template <typename Emit>
  void on_track(Lane& lane, Emit&& emit) {
    if (obs::tracer() == nullptr) return;
    if (!track_base_) {
      emit();
      return;
    }
    obs::ScopedTrack track(lane.track, &lane.seq);
    emit();
  }

  const ImpairedLinkConfig& cfg_;
  const RecoveryPolicy& policy_;
  const double fs_;
  const bool shared_;
  const std::optional<std::uint32_t> track_base_;
  DspWorkspace& workspace_;
  const ImpairmentChain uplink_;
  const ImpairmentChain downlink_;
  const gen2::Bits epc_;
  const gen2::Bits epc_frame_;
  const gen2::Bits query_rep_;
  const double charge_amp_;
  const double slot_s_;
  std::vector<double> supply_;  ///< brownout supply envelope scratch
  std::array<std::vector<double>, 16> query_env_;
  std::array<double, 16> query_env_power_{};
  std::array<bool, 16> query_env_built_{};
  std::vector<double> epc_tx_;
  double epc_tx_power_ = 0.0;
};

const std::vector<double>& SessionEngine::query_envelope(std::uint8_t q,
                                                         double* power) {
  // q <= 15: AdaptiveQ rejects any q_max above 15.
  if (!query_env_built_[q]) {
    query_env_[q] = gen2::pie_encode(
        gen2::QueryCommand{.m = cfg_.uplink, .q = q}.encode(), cfg_.pie, fs_,
        /*with_preamble=*/true);
    query_env_power_[q] = signal_mean_power(query_env_[q]);
    query_env_built_[q] = true;
  }
  *power = query_env_power_[q];
  return query_env_[q];
}

const std::vector<double>& SessionEngine::epc_record() {
  if (epc_tx_.empty()) {
    epc_tx_ = modulate_uplink(cfg_, epc_frame_);
    epc_tx_power_ = signal_mean_power(epc_tx_);
  }
  return epc_tx_;
}

void SessionEngine::charge(Lane& lane) {
  LinkSessionReport& r = lane.report;
  const double t0 = r.elapsed_s;
  r.elapsed_s += cfg_.charge_time_s;
  if (cfg_.impair.brownout.enabled) {
    // The transient doubler decides: the supply (with burst fades) must
    // bring the rail past its recover voltage.
    Rng charge_rng = lane.next_rng();
    supply_.assign(static_cast<std::size_t>(cfg_.charge_time_s * fs_),
                   charge_amp_);
    apply_burst_erasures(supply_, fs_, cfg_.impair.bursts, charge_rng,
                         nullptr);
    const auto gate = brownout_gate(supply_, fs_, cfg_.impair.brownout,
                                    &r.trace, &lane.rail);
    r.powered = !gate.empty() && gate.back();
  } else {
    // The array/loss-scaled CW amplitude must clear the power-up threshold.
    r.powered = charge_amp_ >= cfg_.power_up_threshold_v;
  }
  on_track(lane, [&] { obs::sim_span("charge", "link", t0, r.elapsed_s); });
  if (!r.powered) {
    r.recovery.failed_stage = SessionStage::kCharge;
    on_track(lane, [&] { obs::sim_instant("brownout", "link", r.elapsed_s); });
    finish(lane);
    return;
  }
  lane.tag.power_up();
  begin_stage(lane, SessionStage::kQuery);
}

void SessionEngine::begin_stage(Lane& lane, SessionStage stage) {
  lane.stage = stage;
  lane.attempt = 0;
  lane.stage_t0 = lane.report.elapsed_s;
  if (policy_.max_attempts < 1) fail_stage(lane);
}

void SessionEngine::end_attempt(Lane& lane) {
  if (++lane.attempt >= policy_.max_attempts) fail_stage(lane);
}

void SessionEngine::fail_stage(Lane& lane) {
  lane.report.recovery.failed_stage = lane.stage;
  on_track(lane, [&] {
    obs::sim_span(to_string(lane.stage), "link", lane.stage_t0,
                  lane.report.elapsed_s);
  });
  finish(lane);
}

void SessionEngine::finish(Lane& lane) {
  emit_session_telemetry(lane.report);
  workspace_.release(std::move(lane.rx));
  lane.rx = std::vector<double>();
  lane.done = true;
}

// Phase A: retry bookkeeping, attempt stream, command envelope, downlink.
void SessionEngine::send_command(Lane& lane, std::vector<FillSlot>& fills) {
  LinkSessionReport& r = lane.report;
  if (lane.attempt > 0) {
    const double backoff = policy_.backoff_for_attempt(lane.attempt - 1);
    r.recovery.backoff_total_s += backoff;
    r.elapsed_s += backoff;
    ++r.recovery.retries;
    if (obs::metrics() != nullptr) {
      std::string key = "link.retry.";
      key += to_string(lane.stage);
      obs::count(key);
      obs::observe("link.backoff_s", backoff);
    }
    on_track(lane, [&] { obs::sim_instant("retry", "link", r.elapsed_s); });
  }
  lane.att_rng = lane.next_rng();
  double power = 0.0;
  const std::vector<double>* env = &lane.ack_env;
  if (lane.stage == SessionStage::kQuery) {
    lane.cur_q = lane.adaptive.q();
    env = &query_envelope(lane.cur_q, &power);
  } else {
    power = lane.ack_env_power;
  }
  r.elapsed_s += static_cast<double>(env->size()) / fs_;
  ++r.commands_sent;
  stage_record(lane.rx, *env, power, downlink_, shared_, fs_, lane.att_rng,
               nullptr, fills);
}

// Phase C: envelope slicer, tag, slot chase, and the uplink record. Returns
// whether the tag replied (its record is then queued for the uplink fill).
bool SessionEngine::take_reply(Lane& lane, std::vector<FillSlot>& fills) {
  LinkSessionReport& r = lane.report;
  const bool is_query = lane.stage == SessionStage::kQuery;
  const auto sliced = gen2::pie_decode(lane.rx, fs_);
  lane.reply.reset();
  if (sliced.valid) lane.reply = lane.tag.on_command(sliced.bits);
  if (is_query && !lane.reply) {
    // Chase the frame's remaining slots with QueryReps (short, robust
    // commands — modeled at the bit level).
    const auto slots = std::size_t{1} << lane.cur_q;
    for (std::size_t s = 1; s < slots && !lane.reply; ++s) {
      lane.adaptive.on_empty();
      r.elapsed_s += slot_s_;
      lane.reply = lane.tag.on_command(query_rep_);
    }
  }
  if (is_query) r.recovery.q_trajectory.push_back(lane.adaptive.q());
  if (!lane.reply) {
    // Silent tag: the reader waits out the reply window.
    ++r.recovery.timeouts;
    r.elapsed_s += policy_.command_timeout_s;
    if (is_query) lane.adaptive.on_empty();
    end_attempt(lane);
    return false;
  }
  if (*lane.reply == epc_frame_) {
    const std::vector<double>& tx = epc_record();
    r.elapsed_s += static_cast<double>(tx.size()) / fs_;
    stage_record(lane.rx, tx, epc_tx_power_, uplink_, shared_, fs_,
                 lane.att_rng, &r.trace, fills);
  } else {
    lane.rx = modulate_uplink(cfg_, *lane.reply);
    r.elapsed_s += static_cast<double>(lane.rx.size()) / fs_;
    stage_record(lane.rx, lane.rx, shared_ ? signal_mean_power(lane.rx) : 0.0,
                 uplink_, shared_, fs_, lane.att_rng, &r.trace, fills);
  }
  return true;
}

// Phase E: brownout reply gate, reader decode, stage transitions.
void SessionEngine::decode_reply(Lane& lane) {
  LinkSessionReport& r = lane.report;
  if (cfg_.impair.brownout.enabled) {
    // The rail sags while the tag modulates: gate the reflection through
    // the doubler, resuming from the rail the charge window left behind
    // (replies don't discharge each other).
    supply_.assign(lane.rx.size(), charge_amp_);
    apply_burst_erasures(supply_, fs_, cfg_.impair.bursts, lane.att_rng,
                         nullptr);
    BrownoutState reply_rail = lane.rail;
    apply_brownout(lane.rx, brownout_gate(supply_, fs_, cfg_.impair.brownout,
                                          &r.trace, &reply_rail));
  }
  const bool is_query = lane.stage == SessionStage::kQuery;
  const UplinkDecode d = decode_uplink(cfg_, lane.rx, lane.reply->size());
  r.last_correlation = d.correlation;
  if (!d.valid) {
    // Garbled reply: indistinguishable from a collision at the reader.
    obs::count("link.decode.fail");
    if (is_query) lane.adaptive.on_collision();
    end_attempt(lane);
    return;
  }
  obs::count("link.decode.ok");
  if (is_query) lane.adaptive.on_single();
  on_track(lane, [&] {
    obs::sim_span(to_string(lane.stage), "link", lane.stage_t0, r.elapsed_s);
  });
  if (is_query) {
    r.rn16 = static_cast<std::uint16_t>(gen2::read_bits(d.bits, 0, 16));
    lane.ack_env = gen2::pie_encode(gen2::AckCommand{.rn16 = r.rn16}.encode(),
                                    cfg_.pie, fs_, /*with_preamble=*/false);
    lane.ack_env_power = signal_mean_power(lane.ack_env);
    begin_stage(lane, SessionStage::kAck);
    return;
  }
  // EPC frame: PC + EPC + CRC16.
  if (d.bits.size() < 32 || !gen2::check_crc16(d.bits)) {
    r.recovery.failed_stage = SessionStage::kAck;
  } else {
    r.epc = gen2::Bits(d.bits.begin() + 16, d.bits.end() - 16);
    r.success = true;
  }
  finish(lane);
}

void SessionEngine::run(
    std::size_t lo, std::span<const std::uint64_t> bases,
    const std::function<void(std::size_t, LinkSessionReport&)>& sink) {
  obs::count(shared_ ? "batch.lockstep_trials" : "batch.fallback_trials",
             bases.size());
  std::vector<Lane> lanes;
  lanes.reserve(bases.size());
  for (std::size_t k = 0; k < bases.size(); ++k) {
    Lane& lane = lanes.emplace_back(lo + k, bases[k], epc_, cfg_.adaptive_q);
    if (track_base_) {
      lane.track = *track_base_ + static_cast<std::uint32_t>(lane.trial);
    }
    lane.rx = workspace_.acquire_real(0);
    charge(lane);
  }

  std::vector<Lane*> active;
  std::vector<Lane*> replied;
  std::vector<FillSlot> fills;
  while (true) {
    active.clear();
    for (Lane& lane : lanes) {
      if (!lane.done) active.push_back(&lane);
    }
    if (active.empty()) break;
    for (Lane* lane : active) send_command(*lane, fills);
    fill_awgn_groups(fills);
    replied.clear();
    for (Lane* lane : active) {
      if (take_reply(*lane, fills)) replied.push_back(lane);
    }
    fill_awgn_groups(fills);
    for (Lane* lane : replied) decode_reply(*lane);
  }
  for (Lane& lane : lanes) sink(lane.trial, lane.report);
}

}  // namespace

std::size_t default_batch_size() {
  if (g_default_batch_overridden && g_default_batch_override > 0) {
    return g_default_batch_override;
  }
  if (!g_default_batch_overridden) {
    if (const char* env = std::getenv("IVNET_BATCH")) {
      // Strict full-string parse, like parse_thread_count: trailing garbage
      // ("32abc") or an out-of-range value must not half-apply or silently
      // vanish — warn once and fall back to batch size 1.
      char* end = nullptr;
      errno = 0;
      const unsigned long v = std::strtoul(env, &end, 10);
      if (env[0] >= '0' && env[0] <= '9' && end != env && *end == '\0' &&
          errno != ERANGE && v >= 1 && v <= 1'000'000) {
        return static_cast<std::size_t>(v);
      }
      if (*env != '\0') {
        static std::once_flag warned;
        std::call_once(warned, [env] {
          std::fprintf(stderr,
                       "ivnet: ignoring invalid IVNET_BATCH='%s' (expected "
                       "an integer in 1..1000000)\n",
                       env);
        });
      }
    }
  }
  return 1;
}

void set_default_batch_size(std::size_t batch_size) {
  g_default_batch_override = batch_size;
  g_default_batch_overridden = batch_size != 0;
}

std::size_t resolve_batch_size(const BatchConfig& config) {
  const std::size_t k =
      config.batch_size != 0 ? config.batch_size : default_batch_size();
  return k == 0 ? 1 : k;
}

SessionOutcome session_outcome_of(const LinkSessionReport& report) {
  SessionOutcome out;
  out.elapsed_s = report.elapsed_s;
  out.last_correlation = report.last_correlation;
  out.backoff_total_s = report.recovery.backoff_total_s;
  out.retries = static_cast<std::uint64_t>(report.recovery.retries);
  out.timeouts = static_cast<std::uint64_t>(report.recovery.timeouts);
  out.commands_sent = static_cast<std::uint32_t>(report.commands_sent);
  out.rn16 = report.rn16;
  out.success = report.success ? 1 : 0;
  out.powered = report.powered ? 1 : 0;
  out.failed_stage = static_cast<std::uint8_t>(report.recovery.failed_stage);
  return out;
}

bool lockstep_batchable(const ImpairedLinkConfig& link) {
  const ImpairmentConfig& im = link.impair;
  return link.uplink == gen2::Miller::kFm0 && im.cfo_hz == 0.0 &&
         im.cfo_phase_rad == 0.0 && im.phase_noise_linewidth_hz == 0.0 &&
         im.clock_drift_ppm == 0.0 &&
         (im.bursts.rate_hz <= 0.0 || im.bursts.mean_duration_s <= 0.0) &&
         !im.brownout.enabled;
}

void run_session_lanes(
    const ImpairedLinkConfig& link, std::size_t lo,
    std::span<const std::uint64_t> bases, DspWorkspace& workspace,
    std::optional<std::uint32_t> track_base,
    const std::function<void(std::size_t, LinkSessionReport&)>& sink) {
  if (bases.empty()) return;
  SessionEngine(link, workspace, track_base).run(lo, bases, sink);
}

void run_session_batch(
    const ImpairedLinkConfig& link, std::uint64_t base_seed,
    std::uint64_t stream_stride, std::uint64_t stream_offset, std::size_t lo,
    std::size_t hi, DspWorkspace& workspace,
    const std::function<void(std::size_t, const SessionOutcome&)>& sink,
    std::optional<std::uint32_t> track_base) {
  if (hi <= lo) return;
  // A session takes exactly ONE draw from its trial stream.
  std::vector<std::uint64_t> bases(hi - lo);
  for (std::size_t k = 0; k < bases.size(); ++k) {
    bases[k] = Rng::stream(base_seed, stream_offset + stream_stride * (lo + k))();
  }
  run_session_lanes(link, lo, bases, workspace, track_base,
                    [&](std::size_t t, LinkSessionReport& report) {
                      sink(t, session_outcome_of(report));
                    });
}

void run_ber_batch(
    const ImpairedLinkConfig& link, std::size_t payload_bits,
    std::uint64_t base_seed, std::uint64_t stream_stride,
    std::uint64_t stream_offset, std::size_t lo, std::size_t hi,
    DspWorkspace& workspace,
    const std::function<void(std::size_t, const BerOutcome&)>& sink) {
  if (hi <= lo) return;
  obs::count(lockstep_batchable(link) ? "batch.lockstep_trials"
                                      : "batch.fallback_trials",
             hi - lo);
  ImpairmentConfig impair = link.impair;
  impair.snr_db = uplink_budget_db(link);
  const ImpairmentChain chain(impair);
  struct BerLane {
    Rng rng{0};
    gen2::Bits payload;
    std::vector<double> rx;
  };
  std::vector<BerLane> lanes(hi - lo);
  std::vector<FillSlot> fills;
  fills.reserve(lanes.size());
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    BerLane& lane = lanes[k];
    lane.rng = Rng::stream(base_seed, stream_offset + stream_stride * (lo + k));
    lane.payload.resize(payload_bits);
    for (auto&& b : lane.payload) b = (lane.rng() & 1u) != 0;
    // The modulated frame is the clean record; its impairments and noise
    // land in place.
    lane.rx = modulate_uplink(link, lane.payload);
    stage_record(lane.rx, lane.rx, 0.0, chain, /*shared=*/false,
                 link.sample_rate_hz, lane.rng, nullptr, fills);
  }
  fill_awgn_groups(fills);
  for (std::size_t k = 0; k < lanes.size(); ++k) {
    BerLane& lane = lanes[k];
    const UplinkDecode d = decode_uplink(link, lane.rx, payload_bits);
    BerOutcome out;
    if (!d.valid) {
      out.bit_errors = payload_bits / 2;
      out.frame_error = 1;
    } else {
      for (std::size_t i = 0; i < payload_bits; ++i) {
        if (d.bits[i] != lane.payload[i]) ++out.bit_errors;
      }
      out.frame_error = out.bit_errors > 0 ? 1 : 0;
    }
    workspace.release(std::move(lane.rx));
    sink(lo + k, out);
  }
}

}  // namespace ivnet
