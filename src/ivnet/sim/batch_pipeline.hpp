// The impaired Gen2 session engine, and the batch machinery around it.
//
// One engine runs every impaired session in the repo: the charge -> Query
// -> RN16 -> ACK -> EPC dialogue with retries, adaptive Q, either uplink
// (FM0 or Miller), every impairment (drift, CFO, phase noise, bursts,
// AWGN) and the brownout charge and reply gates. It advances K lanes
// (independent trials) round by round through the same stages, in the
// NDN-DPDK burst style; K = 1 is a lone session, and
// run_impaired_link_session (impair/link_session.hpp) is exactly that
// call. Per round, each lane runs its own stages before AWGN on its own
// attempt stream (ImpairmentChain::apply_before_awgn), then the AWGN
// fills of lanes whose records have equal length are generated together
// in SIMD lanes (signal/gauss.hpp). One DspWorkspace arena serves a whole
// batch, and per-trial results land in plain-old-data SessionOutcome
// slots the caller folds batch-at-a-time.
//
// Determinism contract: trial t draws from Rng::stream(base_seed,
// stream_offset + stream_stride * t), and each lane only ever draws from
// its own streams, so outcomes are bitwise-identical at any batch size
// and any thread count. session_golden_test pins the engine's outputs
// (SessionOutcome bytes, EPC, Q trajectory, impairment trace, BER-probe
// outcomes, sweep JSON and the sim trace) as frozen digests taken from
// the retired one-trial-at-a-time implementation; batch_pipeline_test and
// determinism_test pin invariance across batch sizes and pool sizes.
//
// Observability: each lane emits its sim-time spans and instants on its
// own trace track with its own sequence counter (the track ids of the
// sweeps are point_index * trials + t), so a sim trace is byte-identical
// at any batch size. Per-trial counters and histograms (link.sessions,
// link.success/failed, link.elapsed_s, link.decode.*, recovery
// histograms) are order-independent; batch-level counters (batch.trials,
// batch.dispatches, batch.lockstep_trials / batch.fallback_trials) and the
// workspace.high_water_bytes gauge describe the dispatch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/signal/dsp_workspace.hpp"

namespace ivnet {

/// Lanes per engine batch, carried by the sweep configs: a speed knob only,
/// output bytes are the same at any value. 0 defers to
/// default_batch_size() (a set_default_batch_size override or the
/// IVNET_BATCH environment variable).
struct BatchConfig {
  std::size_t batch_size = 0;
};

/// Process-wide default batch size: set_default_batch_size() override if
/// any, else IVNET_BATCH (when set and valid), else 1.
std::size_t default_batch_size();

/// Override the process default (0 restores the IVNET_BATCH/1 behavior).
/// Same spirit as set_parallel_threads: for benchmarks and CLI plumbing,
/// not safe to call concurrently with in-flight sweeps.
void set_default_batch_size(std::size_t batch_size);

/// The batch size a config resolves to (>= 1).
std::size_t resolve_batch_size(const BatchConfig& config);

/// POD projection of LinkSessionReport for memcmp-strict pinning and
/// SoA-style batch accumulation. Fixed-width fields ordered
/// widest-first with explicit tail padding: no implicit padding bytes, so
/// aggregate-initialized instances compare reliably with std::memcmp.
struct SessionOutcome {
  double elapsed_s = 0.0;
  double last_correlation = 0.0;
  double backoff_total_s = 0.0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint32_t commands_sent = 0;
  std::uint16_t rn16 = 0;
  std::uint8_t success = 0;
  std::uint8_t powered = 0;
  std::uint8_t failed_stage = 0;  ///< SessionStage of the failure (success: 0)
  std::uint8_t pad[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(SessionOutcome) == 56, "SessionOutcome must be packed");

/// One raw-BER probe outcome (waterfall even-stream trials).
struct BerOutcome {
  std::uint64_t bit_errors = 0;
  std::uint8_t frame_error = 0;
  std::uint8_t pad[7] = {0, 0, 0, 0, 0, 0, 0};
};
static_assert(sizeof(BerOutcome) == 16, "BerOutcome must be packed");

/// A session report projected onto the POD outcome.
SessionOutcome session_outcome_of(const LinkSessionReport& report);

/// The session engine: one lane per entry of `bases`. Lane k is trial
/// lo + k, and bases[k] is the one draw the session takes from its trial
/// stream (every command attempt derives its own counter-keyed stream from
/// it). With a `track_base`, lane k's sim events land on track
/// *track_base + lo + k with a fresh sequence counter; without one, every
/// lane emits on the caller's current track (for K = 1 exactly a lone
/// session's timeline). `sink(lo + k, report)` runs once per lane, in
/// ascending trial order, after the batch completes. Throws
/// std::invalid_argument for an invalid link.adaptive_q (see AdaptiveQ).
void run_session_lanes(
    const ImpairedLinkConfig& link, std::size_t lo,
    std::span<const std::uint64_t> bases, DspWorkspace& workspace,
    std::optional<std::uint32_t> track_base,
    const std::function<void(std::size_t, LinkSessionReport&)>& sink);

/// Run session trials [lo, hi) as one batch of lanes. Trial t uses
/// Rng::stream(base_seed, stream_offset + stream_stride * t) (waterfall
/// sessions: stride 2, offset 1; matrix/depth sweeps: stride 1, offset 0).
/// `workspace` is the batch's arena (one per batch, not per trial).
/// `sink(t, outcome)` is invoked once per trial in ascending trial order
/// after the batch completes; `track_base` as in run_session_lanes.
void run_session_batch(
    const ImpairedLinkConfig& link, std::uint64_t base_seed,
    std::uint64_t stream_stride, std::uint64_t stream_offset, std::size_t lo,
    std::size_t hi, DspWorkspace& workspace,
    const std::function<void(std::size_t, const SessionOutcome&)>& sink,
    std::optional<std::uint32_t> track_base = std::nullopt);

/// Run raw-BER probe trials [lo, hi) as one batch (waterfall even streams:
/// stride 2, offset 0). A probe draws a random payload (one raw draw per
/// bit) from its trial stream, modulates it on the uplink, passes it
/// through the uplink impairments at the uplink budget (no brownout), and
/// decodes it at the reader's correlation gate; an undecodable frame is
/// charged half its bits. Same seeding and sink contract as above.
void run_ber_batch(
    const ImpairedLinkConfig& link, std::size_t payload_bits,
    std::uint64_t base_seed, std::uint64_t stream_stride,
    std::uint64_t stream_offset, std::size_t lo, std::size_t hi,
    DspWorkspace& workspace,
    const std::function<void(std::size_t, const BerOutcome&)>& sink);

/// True when neither link direction touches a record before AWGN (FM0
/// uplink, no CFO, phase noise, drift, bursts or brownout): lanes then
/// write noise straight from the batch's cached clean records instead of
/// copying and impairing them per lane. Outcomes are identical either
/// way; the engine counts the two cases as batch.lockstep_trials and
/// batch.fallback_trials.
bool lockstep_batchable(const ImpairedLinkConfig& link);

/// Deterministic batch-grained reduction: run_batch(lo, hi) -> T evaluates
/// trials [lo, hi) (hi - lo <= batch_size) and returns the batch partial;
/// partials are combined in batch order. Batches are dispatched on the
/// shared pool, one batch per pool_run task, so batch_size IS the
/// scheduling grain (it replaces kParallelGrain for batched sweeps).
/// Bitwise-identical totals for any pool size follow from the fixed batch
/// boundaries and in-order fold — and totals are batch-size-invariant too
/// whenever `combine` is associative over per-trial contributions (the
/// waterfall tallies are integer sums).
template <typename T, typename RunBatch, typename Combine>
T batched_reduce(std::size_t n, std::size_t batch_size, T identity,
                 RunBatch&& run_batch, Combine&& combine) {
  if (n == 0) return identity;
  const std::size_t k = batch_size == 0 ? 1 : batch_size;
  const std::size_t batches = (n + k - 1) / k;
  obs::count("batch.dispatches", batches);
  obs::count("batch.trials", n);
  std::vector<T> partials(batches, identity);
  const auto run_one = [&](std::size_t b) {
    partials[b] = run_batch(b * k, std::min(n, (b + 1) * k));
  };
  if (batches <= 1 || parallel_thread_count() <= 1 ||
      detail::in_pool_worker()) {
    for (std::size_t b = 0; b < batches; ++b) run_one(b);
  } else {
    detail::pool_run(batches, run_one);
  }
  T total = std::move(partials[0]);
  for (std::size_t b = 1; b < batches; ++b) {
    total = combine(std::move(total), std::move(partials[b]));
  }
  return total;
}

}  // namespace ivnet
