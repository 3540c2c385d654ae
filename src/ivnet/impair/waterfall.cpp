#include "ivnet/impair/waterfall.hpp"

#include <algorithm>

#include "ivnet/common/json.hpp"
#include "ivnet/obs/obs.hpp"

namespace ivnet {
namespace {

/// Per-batch accumulator, folded in batch order by batched_reduce: the
/// outcome tallies plus the batch workspace's high-water mark, max-combined
/// so the sweep reports the arena gauge once from the calling thread
/// (pool-thread gauge writes would race).
struct Tally {
  std::size_t bit_errors = 0;
  std::size_t frame_errors = 0;
  std::size_t successes = 0;
  std::size_t retried_successes = 0;
  long retries = 0;
  long timeouts = 0;
  std::size_t high_water = 0;
};

Tally combine(Tally a, const Tally& b) {
  a.bit_errors += b.bit_errors;
  a.frame_errors += b.frame_errors;
  a.successes += b.successes;
  a.retried_successes += b.retried_successes;
  a.retries += b.retries;
  a.timeouts += b.timeouts;
  a.high_water = std::max(a.high_water, b.high_water);
  return a;
}

/// One sweep point: trials [0, n) through the session engine in batches of
/// `batch` lanes, one fresh DspWorkspace per batch (deterministic
/// high-water), with the optional BER probe sharing the batch's workspace.
/// Trial t's sim events land on track `track_base + t`.
Tally run_point(const ImpairedLinkConfig& link, std::size_t n,
                std::size_t batch, std::uint64_t base, std::uint64_t stride,
                std::uint64_t session_offset, std::size_t ber_payload_bits,
                std::size_t track_base) {
  // Reject a bad adaptive-Q config here, before any pool dispatch.
  (void)AdaptiveQ(link.adaptive_q);
  return batched_reduce<Tally>(
      n, batch, Tally{},
      [&](std::size_t lo, std::size_t hi) {
        Tally t;
        DspWorkspace workspace;
        if (ber_payload_bits > 0) {
          run_ber_batch(link, ber_payload_bits, base, stride, 0, lo, hi,
                        workspace, [&](std::size_t, const BerOutcome& o) {
                          t.bit_errors += o.bit_errors;
                          t.frame_errors += o.frame_error;
                        });
        }
        run_session_batch(
            link, base, stride, session_offset, lo, hi, workspace,
            [&](std::size_t, const SessionOutcome& o) {
              t.successes += o.success;
              t.retried_successes += o.success != 0 && o.retries > 0;
              t.retries += static_cast<long>(o.retries);
              t.timeouts += static_cast<long>(o.timeouts);
            },
            static_cast<std::uint32_t>(track_base));
        t.high_water = workspace.high_water_bytes();
        return t;
      },
      combine);
}

}  // namespace

double medium_loss_at_depth_db(const Medium& medium, double freq_hz,
                               double depth_m) {
  return medium.power_loss_db_per_m(freq_hz) * depth_m +
         boundary_loss_db(media::air(), medium, freq_hz);
}

std::vector<WaterfallPoint> run_ber_waterfall(const WaterfallConfig& config,
                                              Rng& rng) {
  obs::ScopedSpan sweep_span("waterfall.sweep", "impair");
  obs::count("waterfall.sweeps");
  obs::count("waterfall.points", config.snr_points_db.size());
  const std::uint64_t base = rng();
  const std::size_t trials = config.trials_per_point;
  const std::size_t batch = resolve_batch_size(config.batch);
  std::size_t sweep_high_water = 0;
  std::vector<WaterfallPoint> points;
  points.reserve(config.snr_points_db.size());
  std::size_t point_index = 0;
  for (const double snr_db : config.snr_points_db) {
    ImpairedLinkConfig link = config.link;
    link.snr_db = snr_db;
    // Streams keyed by trial index only: every SNR point replays the same
    // noise shapes at its own power (common random numbers). Even indices
    // feed the BER probe, odd ones the full session.
    const Tally total =
        run_point(link, trials, batch, base, /*stride=*/2,
                  /*session_offset=*/1, config.payload_bits,
                  point_index * trials);
    sweep_high_water = std::max(sweep_high_water, total.high_water);
    ++point_index;
    WaterfallPoint p;
    p.snr_db = snr_db;
    p.trials = trials;
    const double n = static_cast<double>(trials);
    p.ber = static_cast<double>(total.bit_errors) /
            (n * static_cast<double>(config.payload_bits));
    p.per = static_cast<double>(total.frame_errors) / n;
    p.session_success_rate = static_cast<double>(total.successes) / n;
    p.mean_retries = static_cast<double>(total.retries) / n;
    p.mean_timeouts = static_cast<double>(total.timeouts) / n;
    points.push_back(p);
  }
  // Once per sweep, from the calling thread: max over every batch's
  // workspace high-water (per-batch gauge writes from pool workers would be
  // racy and thread-count-dependent).
  obs::gauge_set("workspace.high_water_bytes",
                 static_cast<double>(sweep_high_water));
  return points;
}

std::vector<MatrixCell> run_session_matrix(const MatrixConfig& config,
                                           Rng& rng) {
  obs::ScopedSpan sweep_span("matrix.sweep", "impair");
  obs::count("matrix.sweeps");
  const std::uint64_t base = rng();
  const std::size_t trials = config.trials_per_cell;
  const std::size_t batch = resolve_batch_size(config.batch);
  std::size_t sweep_high_water = 0;
  std::vector<MatrixCell> cells;
  cells.reserve(config.media.size() * config.snr_points_db.size() *
                config.antenna_counts.size());
  std::size_t cell_index = 0;
  for (const auto& medium : config.media) {
    for (const double snr_db : config.snr_points_db) {
      for (const std::size_t antennas : config.antenna_counts) {
        ImpairedLinkConfig link = config.link;
        link.medium_loss_db = medium.loss_db;
        link.snr_db = snr_db;
        link.num_antennas = antennas;
        // Trial-keyed streams shared by every cell: the whole matrix
        // replays the same noise realizations per trial slot.
        const Tally total =
            run_point(link, trials, batch, base, /*stride=*/1,
                      /*session_offset=*/0, /*ber_payload_bits=*/0,
                      cell_index * trials);
        sweep_high_water = std::max(sweep_high_water, total.high_water);
        ++cell_index;
        MatrixCell cell;
        cell.medium = medium.name;
        cell.medium_loss_db = medium.loss_db;
        cell.snr_db = snr_db;
        cell.num_antennas = antennas;
        cell.trials = trials;
        cell.successes = total.successes;
        const double n = static_cast<double>(trials);
        cell.success_rate = static_cast<double>(total.successes) / n;
        cell.mean_retries = static_cast<double>(total.retries) / n;
        cell.mean_timeouts = static_cast<double>(total.timeouts) / n;
        cell.recovered_by_retry = total.retried_successes;
        cells.push_back(cell);
      }
    }
  }
  obs::gauge_set("workspace.high_water_bytes",
                 static_cast<double>(sweep_high_water));
  return cells;
}

std::vector<DepthPoint> run_success_vs_depth(const DepthSweepConfig& config,
                                             Rng& rng) {
  obs::ScopedSpan sweep_span("depth.sweep", "impair");
  obs::count("depth.sweeps");
  const std::uint64_t base = rng();
  const std::size_t trials = config.trials_per_point;
  const std::size_t batch = resolve_batch_size(config.batch);
  std::size_t sweep_high_water = 0;
  std::vector<DepthPoint> points;
  points.reserve(config.depths_m.size());
  std::size_t point_index = 0;
  for (const double depth_m : config.depths_m) {
    ImpairedLinkConfig link = config.link;
    link.medium_loss_db =
        medium_loss_at_depth_db(config.medium, config.freq_hz, depth_m);
    const Tally total =
        run_point(link, trials, batch, base, /*stride=*/1,
                  /*session_offset=*/0, /*ber_payload_bits=*/0,
                  point_index * trials);
    sweep_high_water = std::max(sweep_high_water, total.high_water);
    ++point_index;
    DepthPoint p;
    p.depth_m = depth_m;
    p.medium_loss_db = link.medium_loss_db;
    const double n = static_cast<double>(trials);
    p.success_rate = static_cast<double>(total.successes) / n;
    p.mean_retries = static_cast<double>(total.retries) / n;
    points.push_back(p);
  }
  obs::gauge_set("workspace.high_water_bytes",
                 static_cast<double>(sweep_high_water));
  return points;
}

std::string waterfall_json(const std::vector<WaterfallPoint>& points) {
  JsonWriter w;
  w.begin_object().key("waterfall").begin_array();
  for (const auto& p : points) {
    w.begin_object()
        .field("snr_db", p.snr_db)
        .field("ber", p.ber)
        .field("per", p.per)
        .field("session_success_rate", p.session_success_rate)
        .field("mean_retries", p.mean_retries)
        .field("mean_timeouts", p.mean_timeouts)
        .field("trials", p.trials)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string matrix_json(const std::vector<MatrixCell>& cells) {
  JsonWriter w;
  w.begin_object().key("matrix").begin_array();
  for (const auto& c : cells) {
    w.begin_object()
        .field("medium", c.medium)
        .field("medium_loss_db", c.medium_loss_db)
        .field("snr_db", c.snr_db)
        .field("num_antennas", c.num_antennas)
        .field("trials", c.trials)
        .field("successes", c.successes)
        .field("success_rate", c.success_rate)
        .field("mean_retries", c.mean_retries)
        .field("mean_timeouts", c.mean_timeouts)
        .field("recovered_by_retry", c.recovered_by_retry)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

std::string depth_sweep_json(const std::vector<DepthPoint>& points) {
  JsonWriter w;
  w.begin_object().key("depth_sweep").begin_array();
  for (const auto& p : points) {
    w.begin_object()
        .field("depth_m", p.depth_m)
        .field("medium_loss_db", p.medium_loss_db)
        .field("success_rate", p.success_rate)
        .field("mean_retries", p.mean_retries)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace ivnet
