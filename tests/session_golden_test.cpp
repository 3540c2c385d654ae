// Frozen goldens of the impaired Gen2 session and the raw-BER probe.
//
// The charge -> Query -> RN16 -> ACK -> EPC session and the waterfall's BER
// probe are pinned here as FNV-1a digests over their batch-1 outputs, for
// every uplink (FM0, Miller-2/4/8) x impairment set (clean, burst
// erasures, CFO + phase noise + clock drift, brownout) x recovery policy
// (no retries, two retries). The sweeps built on them (waterfall, matrix
// and depth JSON) and the sim-time trace of a matrix sweep are pinned the
// same way. Any change to the bytes a session produces fails here, so the
// engine can be restructured freely as long as these stay put.
//
// Platform note: phase noise draws through Rng::normal, which uses libm's
// log/sqrt/cos (Box-Muller), so the digests of every config with phase
// noise (the "oscillator" rows and the M4 oscillator sweeps) are pinned
// against glibc's libm. The AWGN sampler (signal/gauss.hpp) is libm-free.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/obs/obs.hpp"
#include "ivnet/obs/trace.hpp"
#include "ivnet/sim/batch_pipeline.hpp"
#include "ivnet/signal/dsp_workspace.hpp"

namespace ivnet {
namespace {

/// 64-bit FNV-1a over raw bytes.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void pod(const T& value) {
    bytes(&value, sizeof(T));
  }
  void bits(const gen2::Bits& b) {
    pod(static_cast<std::uint64_t>(b.size()));
    for (const bool bit : b) pod(static_cast<std::uint8_t>(bit ? 1 : 0));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest_of(const std::string& s) {
  Fnv1a h;
  h.bytes(s.data(), s.size());
  return h.value();
}

enum class Impair { kClean, kBursts, kOscillator, kBrownout };

const char* name_of(Impair im) {
  switch (im) {
    case Impair::kClean: return "clean";
    case Impair::kBursts: return "bursts";
    case Impair::kOscillator: return "oscillator";
    case Impair::kBrownout: return "brownout";
  }
  return "?";
}

ImpairedLinkConfig grid_config(gen2::Miller uplink, Impair im, int retries) {
  ImpairedLinkConfig link;
  link.uplink = uplink;
  link.recovery = RecoveryPolicy::retries(retries);
  switch (im) {
    case Impair::kClean:
      break;
    case Impair::kBursts:
      link.impair.bursts = {.rate_hz = 150.0, .mean_duration_s = 5e-4,
                            .depth_db = 40.0};
      break;
    case Impair::kOscillator:
      link.impair.cfo_hz = 3.0;
      link.impair.cfo_phase_rad = 0.25;
      link.impair.phase_noise_linewidth_hz = 10.0;
      link.impair.clock_drift_ppm = 5.0;
      break;
    case Impair::kBrownout:
      // Bursts fade the supply, so the rail actually sags mid-session.
      link.impair.brownout.enabled = true;
      link.impair.bursts = {.rate_hz = 400.0, .mean_duration_s = 3e-4,
                            .depth_db = 40.0};
      break;
  }
  return link;
}

/// One row of the grid: its session and BER-probe digests.
struct GridGolden {
  gen2::Miller uplink;
  Impair impair;
  int retries;
  std::uint64_t session;
  std::uint64_t ber;
};

constexpr double kGridSnrDb[] = {14.0, 7.0, 3.0, 1.0};
constexpr std::size_t kGridTrials = 6;
constexpr std::size_t kBerPayloadBits = 64;

const GridGolden kGrid[] = {
    // clang-format off
    {gen2::Miller::kFm0, Impair::kClean,      0, 0x86f269a25ce7b007ull,
     0xc1cb40e56f2e95e4ull},
    {gen2::Miller::kFm0, Impair::kClean,      2, 0x7d45c4c60e8e06f1ull,
     0xc1cb40e56f2e95e4ull},
    {gen2::Miller::kFm0, Impair::kBursts,     0, 0x6953dea8a29fc2afull,
     0xf32a68ccf0f78224ull},
    {gen2::Miller::kFm0, Impair::kBursts,     2, 0x823f79ad4975652full,
     0xf32a68ccf0f78224ull},
    {gen2::Miller::kFm0, Impair::kOscillator, 0, 0xd7085285c3b1bdb3ull,
     0xb7d8bd5f0647ae85ull},
    {gen2::Miller::kFm0, Impair::kOscillator, 2, 0x4a449aa21fa11b24ull,
     0xb7d8bd5f0647ae85ull},
    {gen2::Miller::kFm0, Impair::kBrownout,   0, 0xf7c02baeb8753d36ull,
     0xf32a68ccf0f78224ull},
    {gen2::Miller::kFm0, Impair::kBrownout,   2, 0xfdaf57ef7532a4dfull,
     0xf32a68ccf0f78224ull},
    {gen2::Miller::kM2,  Impair::kClean,      0, 0x179e143b8d64a1b6ull,
     0xc1cb40e56f2e95e4ull},
    {gen2::Miller::kM2,  Impair::kClean,      2, 0xb58f71cb41481dd2ull,
     0xc1cb40e56f2e95e4ull},
    {gen2::Miller::kM2,  Impair::kBursts,     0, 0xa8e641dbd47d1114ull,
     0x5c28430dbaea81eaull},
    {gen2::Miller::kM2,  Impair::kBursts,     2, 0x739f67332c0f0118ull,
     0x5c28430dbaea81eaull},
    {gen2::Miller::kM2,  Impair::kOscillator, 0, 0xadebd3b196496ea0ull,
     0x749697c896c268a5ull},
    {gen2::Miller::kM2,  Impair::kOscillator, 2, 0x5029b5074b92ce6full,
     0x749697c896c268a5ull},
    {gen2::Miller::kM2,  Impair::kBrownout,   0, 0x96f0f3fc2a25b244ull,
     0xe07fdfdc45bef8e4ull},
    {gen2::Miller::kM2,  Impair::kBrownout,   2, 0x6215bfef81534c35ull,
     0xe07fdfdc45bef8e4ull},
    {gen2::Miller::kM4,  Impair::kClean,      0, 0x96ff7bf10c97635eull,
     0x10fec2dd470e5025ull},
    {gen2::Miller::kM4,  Impair::kClean,      2, 0xe84fbe7dad1a61d3ull,
     0x10fec2dd470e5025ull},
    {gen2::Miller::kM4,  Impair::kBursts,     0, 0x5e73f8c6734bb948ull,
     0x0efa773eb846c744ull},
    {gen2::Miller::kM4,  Impair::kBursts,     2, 0xa04af48bb04133fcull,
     0x0efa773eb846c744ull},
    {gen2::Miller::kM4,  Impair::kOscillator, 0, 0xd2a7a1c3968127edull,
     0x7d9ad3eeb983a627ull},
    {gen2::Miller::kM4,  Impair::kOscillator, 2, 0x4637feea571ac261ull,
     0x7d9ad3eeb983a627ull},
    {gen2::Miller::kM4,  Impair::kBrownout,   0, 0x7c033a617603b757ull,
     0x4f9061621a5f2143ull},
    {gen2::Miller::kM4,  Impair::kBrownout,   2, 0xc6a724bac765e410ull,
     0x4f9061621a5f2143ull},
    {gen2::Miller::kM8,  Impair::kClean,      0, 0x05f157e3b470e30dull,
     0xdd8858c4a788cda4ull},
    {gen2::Miller::kM8,  Impair::kClean,      2, 0xfb3fc1f1b1e0ae80ull,
     0xdd8858c4a788cda4ull},
    {gen2::Miller::kM8,  Impair::kBursts,     0, 0xaea5d11d9cb42fd7ull,
     0x0f6adda69d515de4ull},
    {gen2::Miller::kM8,  Impair::kBursts,     2, 0x90efd83af0e5af83ull,
     0x0f6adda69d515de4ull},
    {gen2::Miller::kM8,  Impair::kOscillator, 0, 0x7195d451ba21090aull,
     0xa52f6ba17cf1b987ull},
    {gen2::Miller::kM8,  Impair::kOscillator, 2, 0x85af4946cf869211ull,
     0xa52f6ba17cf1b987ull},
    {gen2::Miller::kM8,  Impair::kBrownout,   0, 0x2519e78223eed6a3ull,
     0x2b7115383d7769a1ull},
    {gen2::Miller::kM8,  Impair::kBrownout,   2, 0x7cb04e9c1f4c54c5ull,
     0x2b7115383d7769a1ull},
    // clang-format on
};

std::string row_name(const GridGolden& row) {
  return "uplink " + std::to_string(static_cast<int>(row.uplink)) + " " +
         name_of(row.impair) + " retries " + std::to_string(row.retries);
}

/// Every session report field the engine produces, for kGridTrials trials
/// at each kGridSnrDb (trial t seeds Rng::stream(seed, t)).
std::uint64_t session_digest(ImpairedLinkConfig link, std::uint64_t seed) {
  Fnv1a h;
  for (const double snr_db : kGridSnrDb) {
    link.snr_db = snr_db;
    for (std::size_t t = 0; t < kGridTrials; ++t) {
      Rng rng = Rng::stream(seed, t);
      const LinkSessionReport r = run_impaired_link_session(link, rng);
      h.pod(session_outcome_of(r));
      h.bits(r.epc);
      h.pod(static_cast<std::uint64_t>(r.recovery.q_trajectory.size()));
      for (const std::uint8_t q : r.recovery.q_trajectory) h.pod(q);
      h.pod(static_cast<std::uint64_t>(r.trace.bursts));
      h.pod(static_cast<std::uint64_t>(r.trace.erased_samples));
      h.pod(static_cast<std::uint64_t>(r.trace.brownout_samples));
      h.pod(static_cast<std::uint8_t>(r.trace.browned_out ? 1 : 0));
      // The caller's rng advances by exactly one draw.
      h.pod(rng());
    }
  }
  return h.value();
}

/// SessionOutcome bytes of the same trials through run_session_batch at
/// batch size `batch` (waterfall-style stream layout: stride 1, offset 0).
std::uint64_t outcome_digest_batched(ImpairedLinkConfig link,
                                     std::uint64_t seed, std::size_t batch) {
  Fnv1a h;
  for (const double snr_db : kGridSnrDb) {
    link.snr_db = snr_db;
    std::vector<SessionOutcome> out(kGridTrials);
    for (std::size_t lo = 0; lo < kGridTrials; lo += batch) {
      DspWorkspace workspace;
      run_session_batch(link, seed, 1, 0, lo,
                        std::min(kGridTrials, lo + batch), workspace,
                        [&](std::size_t t, const SessionOutcome& o) {
                          out[t] = o;
                        });
    }
    for (const SessionOutcome& o : out) h.pod(o);
  }
  return h.value();
}

std::uint64_t outcome_digest_scalar(ImpairedLinkConfig link,
                                    std::uint64_t seed) {
  Fnv1a h;
  for (const double snr_db : kGridSnrDb) {
    link.snr_db = snr_db;
    for (std::size_t t = 0; t < kGridTrials; ++t) {
      Rng rng = Rng::stream(seed, t);
      h.pod(session_outcome_of(run_impaired_link_session(link, rng)));
    }
  }
  return h.value();
}

/// BerOutcome stream of the raw-BER probe (waterfall even streams: stride
/// 2, offset 0) at batch size `batch`.
std::uint64_t ber_digest(ImpairedLinkConfig link, std::uint64_t seed,
                         std::size_t batch) {
  Fnv1a h;
  for (const double snr_db : kGridSnrDb) {
    link.snr_db = snr_db;
    std::vector<BerOutcome> out(kGridTrials);
    for (std::size_t lo = 0; lo < kGridTrials; lo += batch) {
      DspWorkspace workspace;
      run_ber_batch(link, kBerPayloadBits, seed, 2, 0, lo,
                    std::min(kGridTrials, lo + batch), workspace,
                    [&](std::size_t t, const BerOutcome& o) { out[t] = o; });
    }
    for (const BerOutcome& o : out) h.pod(o);
  }
  return h.value();
}

constexpr std::uint64_t kGridSeed = 0x5e55107;

TEST(SessionGolden, GridSessionsMatchFrozenDigests) {
  for (const GridGolden& row : kGrid) {
    const ImpairedLinkConfig link =
        grid_config(row.uplink, row.impair, row.retries);
    const std::uint64_t got = session_digest(link, kGridSeed);
    EXPECT_EQ(got, row.session) << row_name(row) << ": got " << hex(got);
  }
}

TEST(SessionGolden, GridBerProbesMatchFrozenDigests) {
  for (const GridGolden& row : kGrid) {
    const ImpairedLinkConfig link =
        grid_config(row.uplink, row.impair, row.retries);
    const std::uint64_t got = ber_digest(link, kGridSeed, 1);
    EXPECT_EQ(got, row.ber) << row_name(row) << ": got " << hex(got);
    EXPECT_EQ(ber_digest(link, kGridSeed, 4), got) << row_name(row);
    EXPECT_EQ(ber_digest(link, kGridSeed, kGridTrials), got)
        << row_name(row);
  }
}

TEST(SessionGolden, GridSessionBatchesMatchSingleSessions) {
  for (const GridGolden& row : kGrid) {
    const ImpairedLinkConfig link =
        grid_config(row.uplink, row.impair, row.retries);
    const std::uint64_t scalar = outcome_digest_scalar(link, kGridSeed);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4},
                                    kGridTrials}) {
      EXPECT_EQ(outcome_digest_batched(link, kGridSeed, batch), scalar)
          << row_name(row) << " batch " << batch;
    }
  }
}

// --- Sweeps ------------------------------------------------------------------

WaterfallConfig waterfall_case(gen2::Miller uplink, Impair im) {
  WaterfallConfig config;
  config.link = grid_config(uplink, im, 1);
  config.snr_points_db = {24.0, 12.0, 4.0};
  config.trials_per_point = 16;
  config.payload_bits = 64;
  return config;
}

MatrixConfig matrix_case(gen2::Miller uplink, Impair im) {
  MatrixConfig config;
  config.link = grid_config(uplink, im, 1);
  config.media = {{"water", 2.0}, {"muscle", 6.0}};
  config.snr_points_db = {24.0, 8.0};
  config.antenna_counts = {1, 3};
  config.trials_per_cell = 10;
  return config;
}

DepthSweepConfig depth_case(gen2::Miller uplink, Impair im) {
  DepthSweepConfig config;
  config.link = grid_config(uplink, im, 2);
  config.link.num_antennas = 8;
  config.link.snr_db = 16.0;
  config.depths_m = {0.02, 0.05, 0.08};
  config.trials_per_point = 12;
  return config;
}

std::string waterfall_at(WaterfallConfig config, std::size_t batch) {
  config.batch.batch_size = batch;
  Rng rng(888);
  return waterfall_json(run_ber_waterfall(config, rng));
}

std::string matrix_at(MatrixConfig config, std::size_t batch) {
  config.batch.batch_size = batch;
  Rng rng(1234);
  return matrix_json(run_session_matrix(config, rng));
}

std::string depth_at(DepthSweepConfig config, std::size_t batch) {
  config.batch.batch_size = batch;
  Rng rng(31);
  return depth_sweep_json(run_success_vs_depth(config, rng));
}

TEST(SessionGolden, WaterfallJsonMatchesFrozenDigests) {
  const struct {
    gen2::Miller uplink;
    Impair impair;
    std::uint64_t digest;
  } cases[] = {
      {gen2::Miller::kFm0, Impair::kClean, 0x29f7b95f2652055eull},
      {gen2::Miller::kM4, Impair::kOscillator, 0x7bc5ef96e3562a73ull},
  };
  for (const auto& c : cases) {
    const WaterfallConfig config = waterfall_case(c.uplink, c.impair);
    const std::string json = waterfall_at(config, 1);
    EXPECT_EQ(digest_of(json), c.digest)
        << name_of(c.impair) << ": got " << hex(digest_of(json)) << "\n"
        << json;
    EXPECT_EQ(waterfall_at(config, 8), json) << name_of(c.impair);
  }
}

TEST(SessionGolden, MatrixJsonMatchesFrozenDigests) {
  const struct {
    gen2::Miller uplink;
    Impair impair;
    std::uint64_t digest;
  } cases[] = {
      {gen2::Miller::kFm0, Impair::kBursts, 0x16215978b98b11a5ull},
      {gen2::Miller::kM4, Impair::kOscillator, 0x339f8df369c6975dull},
  };
  for (const auto& c : cases) {
    const MatrixConfig config = matrix_case(c.uplink, c.impair);
    const std::string json = matrix_at(config, 1);
    EXPECT_EQ(digest_of(json), c.digest)
        << name_of(c.impair) << ": got " << hex(digest_of(json)) << "\n"
        << json;
    EXPECT_EQ(matrix_at(config, 8), json) << name_of(c.impair);
  }
}

TEST(SessionGolden, DepthJsonMatchesFrozenDigests) {
  const struct {
    gen2::Miller uplink;
    Impair impair;
    std::uint64_t digest;
  } cases[] = {
      {gen2::Miller::kFm0, Impair::kClean, 0x4a54a7c787b11bf0ull},
      {gen2::Miller::kM2, Impair::kBrownout, 0x8f67b2a150bc8838ull},
  };
  for (const auto& c : cases) {
    const DepthSweepConfig config = depth_case(c.uplink, c.impair);
    const std::string json = depth_at(config, 1);
    EXPECT_EQ(digest_of(json), c.digest)
        << name_of(c.impair) << ": got " << hex(digest_of(json)) << "\n"
        << json;
    EXPECT_EQ(depth_at(config, 8), json) << name_of(c.impair);
  }
}

// --- Sim trace -----------------------------------------------------------------

TEST(SessionGolden, MatrixSimTraceMatchesFrozenDigest) {
  // determinism_test's SimTraceByteEqualAcrossPoolSizes workload.
  MatrixConfig config;
  config.media = {{"water", 2.0}, {"muscle", 6.0}};
  config.snr_points_db = {26.0, 9.0};
  config.antenna_counts = {1, 4};
  config.trials_per_cell = 8;
  config.link.recovery = RecoveryPolicy::retries(1);
  config.link.impair.bursts = {.rate_hz = 120.0, .mean_duration_s = 5e-4,
                               .depth_db = 40.0};
  config.batch.batch_size = 1;
  obs::Tracer tracer(obs::TraceClock::kSim);
  obs::install({.metrics = nullptr, .tracer = &tracer});
  Rng rng(97);
  (void)run_session_matrix(config, rng);
  obs::install_null();
  const std::string trace = tracer.to_json();
  EXPECT_EQ(digest_of(trace), 0xf6fe3bda10e05331ull) << "got " << hex(digest_of(trace));
}

}  // namespace
}  // namespace ivnet
