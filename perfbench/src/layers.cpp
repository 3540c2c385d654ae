#include "layers.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "ivnet/cib/delta_objective.hpp"
#include "ivnet/cib/frequency_plan.hpp"
#include "ivnet/cib/objective.hpp"
#include "ivnet/common/parallel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/gen2/commands.hpp"
#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/gen2/miller.hpp"
#include "ivnet/gen2/pie.hpp"
#include "ivnet/gen2/tag_sm.hpp"
#include "ivnet/impair/impairment.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/gauss.hpp"
#include "ivnet/sim/batch_pipeline.hpp"
#include "ivnet/sim/campaign.hpp"
#include "phases.hpp"

namespace perfbench {

using namespace ivnet;

namespace {

constexpr double kFs = 800e3;   // ImpairedLinkConfig::sample_rate_hz
constexpr double kBlf = 40e3;   // ImpairedLinkConfig::blf_hz
constexpr double kBudgetS = 0.08;  // timing budget per kernel

/// Keeps results observable so the timed calls are not optimized away.
volatile double g_sink = 0.0;

double us(double s) { return s * 1e6; }
double ns(double s) { return s * 1e9; }

/// Waterfall wall time minus the same batches replayed directly through
/// run_ber_batch / run_session_batch: the sweep's own dispatch, workspace
/// and fold cost, as a share of its wall time. The replay batches are laid
/// out as child spans of the sweep span and the share is its self time.
double waterfall_self_share(std::uint64_t seed) {
  set_parallel_threads(1);
  const WaterfallConfig config = x13_config(256, kSweepBatch);
  std::vector<double> shares;
  for (int rep = 0; rep < 3; ++rep) {
    Rng rng(seed);
    const double t0 = now_s();
    (void)run_ber_waterfall(config, rng);
    const double wall = now_s() - t0;

    const std::uint64_t base = Rng(seed)();  // the sweep's one draw
    std::vector<Span> spans;
    spans.push_back(Span{"waterfall", 0.0, wall, -1, 0});
    double cursor = 0.0;
    for (const double snr : config.snr_points_db) {
      ImpairedLinkConfig link = config.link;
      link.snr_db = snr;
      for (std::size_t lo = 0; lo < config.trials_per_point;
           lo += kSweepBatch) {
        const std::size_t hi =
            std::min(config.trials_per_point, lo + kSweepBatch);
        DspWorkspace workspace;
        const double b0 = now_s();
        run_ber_batch(link, config.payload_bits, base, 2, 0, lo, hi,
                      workspace, [](std::size_t, const BerOutcome& o) {
                        g_sink = g_sink + static_cast<double>(o.bit_errors);
                      });
        run_session_batch(link, base, 2, 1, lo, hi, workspace,
                          [](std::size_t, const SessionOutcome& o) {
                            g_sink = g_sink + o.elapsed_s;
                          });
        const double d = now_s() - b0;
        spans.push_back(Span{"batch", cursor, cursor + d, 0, lo});
        cursor += d;
      }
    }
    shares.push_back(span_self_time(spans, 0) / wall);
  }
  return median(shares);
}

}  // namespace

void measure_layers(const LayerInputs& in, Report& report) {
  set_parallel_threads(1);
  Rng rng(in.seed ^ 0x5eedull);

  // Shapes: the 128-bit EPC reply (PC + EPC + CRC-16) every session ends
  // with, FM0 and Miller-4 modulated at the link's BLF and sample rate.
  const gen2::TagStateMachine reference_tag(default_link_epc(), 1);
  const gen2::Bits epc_frame = reference_tag.epc_frame();
  const std::vector<double> fm0_record = gen2::fm0_modulate(epc_frame, kBlf, kFs);
  const std::size_t record_len = fm0_record.size();
  std::vector<double> fm0_rx = fm0_record;
  apply_awgn(fm0_rx, 14.0, rng);
  const std::vector<double> m4_record =
      gen2::miller_modulate(gen2::Miller::kM4, epc_frame, kBlf, kFs);
  std::vector<double> m4_rx = m4_record;
  apply_awgn(m4_rx, 14.0, rng);
  report.note("layers.uplink_record_samples", static_cast<double>(record_len));

  // --- signal.gauss ---
  {
    Rng lanes[signal::kGaussLanes] = {Rng(1), Rng(2), Rng(3), Rng(4)};
    Rng* lane_ptrs[signal::kGaussLanes];
    double sigmas[signal::kGaussLanes];
    std::vector<double> out[signal::kGaussLanes];
    double* dst[signal::kGaussLanes];
    const double* src[signal::kGaussLanes];
    for (std::size_t l = 0; l < signal::kGaussLanes; ++l) {
      lane_ptrs[l] = &lanes[l];
      sigmas[l] = 0.3;
      out[l].assign(record_len, 0.0);
      dst[l] = out[l].data();
      src[l] = fm0_record.data();
    }
    const double t = time_per_call(
        [&] {
          signal::axpy_awgn_lanes_onto(signal::kGaussLanes, lane_ptrs, sigmas,
                                       src, dst, record_len);
        },
        20, kBudgetS);
    report.metric("signal.gauss.lanes_ns_per_draw",
                  ns(t) / static_cast<double>(signal::kGaussLanes * record_len),
                  "ns");
    std::vector<double> buf = fm0_record;
    const double ts = time_per_call(
        [&] { signal::axpy_awgn(rng, 0.3, buf); }, 20, kBudgetS);
    report.metric("signal.gauss.scalar_ns_per_draw",
                  ns(ts) / static_cast<double>(record_len), "ns");
    g_sink = g_sink + out[0][0] + buf[0];
  }

  // --- common.rng ---
  {
    double acc = 0.0;
    const double t =
        time_per_call([&] { acc += rng.normal(); }, 4096, kBudgetS);
    g_sink = g_sink + acc;
    report.metric("common.rng.normal_ns", ns(t), "ns");
  }

  // --- gen2 ---
  {
    const gen2::Bits query = gen2::QueryCommand{}.encode();
    const gen2::PieTiming timing;
    const std::vector<double> env = gen2::pie_encode(query, timing, kFs, true);
    report.metric("gen2.pie_encode_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink + static_cast<double>(
                                              gen2::pie_encode(query, timing,
                                                               kFs, true)
                                                  .size());
                      },
                      50, kBudgetS)),
                  "us");
    const auto decoded = gen2::pie_decode(env, kFs);
    report.check(decoded.valid && decoded.bits == query,
                 "layers: PIE round trip failed");
    report.metric("gen2.pie_decode_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink + static_cast<double>(
                                              gen2::pie_decode(env, kFs)
                                                  .bits.size());
                      },
                      50, kBudgetS)),
                  "us");
    report.metric("gen2.fm0_modulate_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink + gen2::fm0_modulate(epc_frame, kBlf,
                                                             kFs)[0];
                      },
                      50, kBudgetS)),
                  "us");
    const auto fm0 = gen2::fm0_decode(fm0_rx, epc_frame.size(), kBlf, kFs, 0.75);
    report.check(fm0.valid && fm0.bits == epc_frame,
                 "layers: FM0 decode at 14 dB failed");
    report.metric("gen2.fm0_decode_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink + gen2::fm0_decode(fm0_rx,
                                                           epc_frame.size(),
                                                           kBlf, kFs, 0.75)
                                              .preamble_correlation;
                      },
                      20, kBudgetS)),
                  "us");
    const auto m4 = gen2::miller_decode(gen2::Miller::kM4, m4_rx,
                                        epc_frame.size(), kBlf, kFs, 0.75);
    report.check(m4.valid && m4.bits == epc_frame,
                 "layers: Miller-4 decode at 14 dB failed");
    report.metric("gen2.miller_decode_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink +
                                 gen2::miller_decode(gen2::Miller::kM4, m4_rx,
                                                     epc_frame.size(), kBlf,
                                                     kFs, 0.75)
                                     .preamble_correlation;
                      },
                      10, kBudgetS)),
                  "us");
    const gen2::Bits pc_epc(epc_frame.begin(), epc_frame.end() - 16);
    report.metric("gen2.crc16_ns",
                  ns(time_per_call(
                      [&] { g_sink = g_sink + gen2::crc16(pc_epc); }, 256,
                      kBudgetS)),
                  "ns");
    std::uint64_t tag_seed = 1;
    report.metric(
        "gen2.tag_sm_us",
        us(time_per_call(
            [&] {
              // Power-up, Query (Q = 0: immediate RN16), ACK -> EPC.
              gen2::TagStateMachine tag(default_link_epc(), tag_seed++);
              tag.power_up();
              const auto rn16 = tag.on_command(query);
              if (rn16) {
                const gen2::AckCommand ack{static_cast<std::uint16_t>(
                    gen2::read_bits(*rn16, 0, 16))};
                const auto epc = tag.on_command(ack.encode());
                g_sink = g_sink + (epc ? static_cast<double>(epc->size()) : 0);
              }
            },
            100, kBudgetS)),
        "us");
  }

  // --- signal.correlate / impair.chain ---
  {
    const std::vector<double> preamble =
        gen2::fm0_preamble_template(kBlf, kFs);
    report.metric("signal.correlate.preamble_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink +
                                 best_correlation(fm0_rx, preamble).value;
                      },
                      20, kBudgetS)),
                  "us");
    ImpairmentConfig impair = matrix_config(1).link.impair;
    impair.snr_db = 14.0;
    const ImpairmentChain chain(impair);
    report.metric("impair.chain_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink + chain.apply(m4_record, kFs, rng)[0];
                      },
                      20, kBudgetS)),
                  "us");
  }

  // --- sim.batch_pipeline / impair sessions ---
  {
    ImpairedLinkConfig link = x13_config(1, kSweepBatch).link;
    link.snr_db = 18.0;  // mid-waterfall
    const std::uint64_t base = in.seed;
    DspWorkspace workspace;
    std::size_t lo = 0;
    const double session_batch = time_per_call(
        [&] {
          run_session_batch(link, base, 2, 1, lo, lo + kSweepBatch, workspace,
                            [](std::size_t, const SessionOutcome& o) {
                              g_sink = g_sink + o.elapsed_s;
                            });
          lo += kSweepBatch;
        },
        4, kBudgetS);
    report.metric("sim.batch_pipeline.session_us_per_trial",
                  us(session_batch) / static_cast<double>(kSweepBatch), "us");
    lo = 0;
    const double ber_batch = time_per_call(
        [&] {
          run_ber_batch(link, 128, base, 2, 0, lo, lo + kSweepBatch, workspace,
                        [](std::size_t, const BerOutcome& o) {
                          g_sink = g_sink + static_cast<double>(o.bit_errors);
                        });
          lo += kSweepBatch;
        },
        4, kBudgetS);
    report.metric("sim.batch_pipeline.ber_us_per_trial",
                  us(ber_batch) / static_cast<double>(kSweepBatch), "us");

    ImpairedLinkConfig impaired = matrix_config(1).link;
    impaired.snr_db = 14.0;
    impaired.num_antennas = 3;
    impaired.medium_loss_db = 6.0;
    report.metric("impair.session_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink +
                                 run_impaired_link_session(impaired, rng)
                                     .elapsed_s;
                      },
                      10, kBudgetS)),
                  "us");
    report.metric("impair.waterfall_self_share", waterfall_self_share(in.seed),
                  "share");
  }

  // --- common.parallel ---
  {
    set_parallel_threads(in.threads);
    std::vector<double> slots(in.threads * 16, 0.0);
    report.metric(
        "common.parallel.for_overhead_us",
        us(time_per_call(
            [&] {
              parallel_for(slots.size(), [&](std::size_t i) {
                slots[i] = static_cast<double>(i);
              });
            },
            50, kBudgetS)),
        "us");
    const MatrixConfig config = matrix_config(32);
    std::vector<double> one, many;
    for (int rep = 0; rep < 2; ++rep) {
      for (const std::size_t threads : {std::size_t{1}, in.threads}) {
        set_parallel_threads(threads);
        Rng matrix_rng(in.seed);
        const double t0 = now_s();
        (void)run_session_matrix(config, matrix_rng);
        (threads == 1 ? one : many).push_back(now_s() - t0);
      }
    }
    report.metric("common.parallel.efficiency",
                  median(one) /
                      (static_cast<double>(in.threads) * median(many)),
                  "share");
  }

  // --- cib ---
  {
    set_parallel_threads(in.threads);
    const FlatnessConstraint constraint;
    for (const std::size_t n : {std::size_t{64}, std::size_t{128}}) {
      std::vector<double> offsets = n == 64 ? in.offsets64 : in.offsets128;
      if (offsets.size() != n) {
        offsets.clear();
        for (std::size_t i = 0; i < n; ++i) offsets.push_back(double(i));
      }
      // The planner's grid: sized from the single-offset cap.
      const double cap =
          std::max(std::floor(constraint.rms_limit_hz() *
                              std::sqrt(static_cast<double>(n))),
                   static_cast<double>(n));
      DeltaEvalConfig eval;
      eval.steps = DeltaEnvelopeState::planner_steps(cap, eval.t_max_s);
      const DeltaEnvelopeState state(offsets, eval);
      std::size_t tone = 0;
      const double move = time_per_call(
          [&] {
            g_sink = g_sink + state.score_move(tone % n,
                                               offsets[tone % n] + 1.0);
            ++tone;
          },
          4, kBudgetS);
      report.metric(n == 64 ? "cib.delta_objective.move_us.n64"
                            : "cib.delta_objective.move_us.n128",
                    us(move), "us");
      if (n == 64) {
        const double full = time_per_call(
            [&] { g_sink = g_sink + state.full_score(offsets); }, 1,
            kBudgetS, 3);
        report.metric("cib.delta_objective.full_score_ms.n64", full * 1e3,
                      "ms");
      }
    }
    set_parallel_threads(1);
    const std::vector<double> paper =
        FrequencyPlan::paper_default().offsets_hz();
    std::vector<double> phases;
    for (std::size_t i = 0; i < paper.size(); ++i) phases.push_back(rng.phase());
    report.metric("cib.objective.peak_envelope_us",
                  us(time_per_call(
                      [&] {
                        g_sink = g_sink + peak_envelope(paper, phases, 1.0);
                      },
                      10, kBudgetS)),
                  "us");
  }

  // --- sim.campaign ---
  {
    set_parallel_threads(1);
    register_builtin_cell_evaluators();
    const CampaignSpec fig9 = fig9_campaign(kCampaignGainTrials);
    std::vector<double> cell_s;
    std::string sample_result;
    for (const std::size_t index : {std::size_t{0}, std::size_t{4},
                                    std::size_t{9}}) {
      CellCache::instance().clear();
      const double t0 = now_s();
      const CellOutcome outcome = resolve_cell(fig9.cells[index], "");
      cell_s.push_back(now_s() - t0);
      sample_result = outcome.result_json;
    }
    CellCache::instance().clear();
    report.metric("sim.campaign.cell_compute_ms", median(cell_s) * 1e3, "ms");

    const std::string probe = in.work_dir + "/append_probe.jsonl";
    std::FILE* f = std::fopen(probe.c_str(), "w");
    if (f != nullptr) {
      const CellSpec& spec = fig9.cells[0];
      const std::uint64_t hash = spec.content_hash();
      const double t = time_per_call(
          [&] { detail::append_journal_record(f, spec, hash, sample_result); },
          1, kBudgetS, 10);
      std::fclose(f);
      report.metric("sim.campaign.journal_append_ms", t * 1e3, "ms");
    }
    std::error_code ec;
    std::filesystem::remove(probe, ec);

    const std::size_t records =
        read_campaign_journal(in.campaign_journal).size();
    report.check(records > 0, "layers: campaign journal is empty");
    const double t = time_per_call(
        [&] {
          g_sink = g_sink + static_cast<double>(
                                read_campaign_journal(in.campaign_journal)
                                    .size());
        },
        5, kBudgetS);
    report.metric("sim.campaign.journal_read_us_per_record",
                  records > 0 ? us(t) / static_cast<double>(records) : 0.0,
                  "us");
  }
  set_parallel_threads(0);
}

}  // namespace perfbench
