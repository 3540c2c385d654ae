// Batched run-to-completion pipeline: the session engine's K-lane batches
// must be BITWISE-identical to lone sessions (run_impaired_link_session,
// batch-1 BER probes) at every batch size, for every tested config —
// including ragged tails and configs whose lanes impair records per lane
// (non-lockstep) — and the lockstep Gaussian sampler must match its scalar
// path draw for draw. SessionOutcome comparisons are memcmp-strict: any padding or
// field drift fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "ivnet/common/parallel.hpp"
#include "ivnet/common/rng.hpp"
#include "ivnet/impair/link_session.hpp"
#include "ivnet/impair/waterfall.hpp"
#include "ivnet/sim/batch_pipeline.hpp"
#include "ivnet/signal/dsp_workspace.hpp"
#include "ivnet/signal/gauss.hpp"

namespace ivnet {
namespace {

class BatchPipelineTest : public ::testing::Test {
 protected:
  void TearDown() override {
    set_parallel_threads(0);
    set_default_batch_size(0);
  }
};

// --- Lockstep Gaussian sampler ---------------------------------------------

TEST_F(BatchPipelineTest, GaussLanesBitwiseMatchScalar) {
  // Lane counts cover the pure scalar fallback (1..3), one packed group,
  // mixed packed+scalar (5, 7), and two packed groups (8).
  for (const std::size_t lanes :
       {std::size_t{1}, std::size_t{3}, signal::kGaussLanes, std::size_t{5},
        std::size_t{7}, 2 * signal::kGaussLanes}) {
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
          std::size_t{5}, std::size_t{17}, std::size_t{64},
          std::size_t{131}}) {
      std::vector<std::vector<double>> scalar_out(lanes);
      std::vector<std::vector<double>> lane_out(lanes);
      std::vector<Rng> scalar_rngs;
      std::vector<Rng> lane_rngs;
      std::vector<double> sigmas(lanes);
      for (std::size_t k = 0; k < lanes; ++k) {
        scalar_rngs.push_back(Rng::stream(99, k));
        lane_rngs.push_back(Rng::stream(99, k));
        scalar_out[k].assign(n, 0.125 * static_cast<double>(k));
        lane_out[k] = scalar_out[k];
        sigmas[k] = k % 2 == 0 ? 1.0 + 0.25 * static_cast<double>(k) : 1e-3;
      }
      for (std::size_t k = 0; k < lanes; ++k) {
        signal::axpy_awgn(scalar_rngs[k], sigmas[k], scalar_out[k]);
      }
      std::vector<Rng*> rng_ptrs(lanes);
      std::vector<double*> data_ptrs(lanes);
      for (std::size_t k = 0; k < lanes; ++k) {
        rng_ptrs[k] = &lane_rngs[k];
        data_ptrs[k] = lane_out[k].data();
      }
      signal::axpy_awgn_lanes(lanes, rng_ptrs.data(), sigmas.data(),
                              data_ptrs.data(), n);
      for (std::size_t k = 0; k < lanes; ++k) {
        EXPECT_EQ(scalar_out[k], lane_out[k])
            << "lanes " << lanes << " lane " << k << " n " << n;
        // The generators must land in the same state too (exactly n draws).
        EXPECT_EQ(scalar_rngs[k].raw_state(), lane_rngs[k].raw_state())
            << "lanes " << lanes << " lane " << k << " n " << n;
      }
    }
  }
}

TEST_F(BatchPipelineTest, GaussSamplerStatistics) {
  Rng rng(4242);
  const std::size_t n = 200000;
  std::vector<double> x(n, 0.0);
  signal::axpy_awgn(rng, 1.0, x);
  double sum = 0.0, sum_sq = 0.0;
  std::size_t far_tail = 0;
  for (const double v : x) {
    sum += v;
    sum_sq += v * v;
    if (v > 4.0 || v < -4.0) ++far_tail;
  }
  const double mean = sum / static_cast<double>(n);
  const double var = sum_sq / static_cast<double>(n) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  // P(|z| > 4) ~ 6.3e-5: the inverse-CDF sampler actually reaches the far
  // tail (Box-Muller-style clamping or a broken tail branch would not).
  EXPECT_GT(far_tail, 0u);
  EXPECT_LT(far_tail, 60u);
}

TEST_F(BatchPipelineTest, ApplyAwgnConsumesOneDrawPerSample) {
  // The lockstep lane engine replays the scalar chain's rng positions; that
  // only works while apply_awgn consumes exactly x.size() raw draws.
  const std::size_t n = 257;
  std::vector<double> x(n, 1.0);
  Rng rng(7);
  apply_awgn(x, 20.0, rng);
  Rng expected(7);
  for (std::size_t i = 0; i < n; ++i) expected();
  EXPECT_EQ(rng.raw_state(), expected.raw_state());
}

// --- Session batches vs lone sessions --------------------------------------

ImpairedLinkConfig lockstep_config(double snr_db) {
  ImpairedLinkConfig link;
  link.snr_db = snr_db;
  link.recovery = RecoveryPolicy::retries(2);
  return link;
}

std::vector<SessionOutcome> scalar_sessions(const ImpairedLinkConfig& link,
                                            std::uint64_t base_seed,
                                            std::uint64_t stride,
                                            std::uint64_t offset,
                                            std::size_t n) {
  std::vector<SessionOutcome> out(n);
  for (std::size_t t = 0; t < n; ++t) {
    Rng rng = Rng::stream(base_seed, offset + stride * t);
    out[t] = session_outcome_of(run_impaired_link_session(link, rng));
  }
  return out;
}

/// Calls run_batch(lo, hi) over [0, n) in batches of `batch_size`.
template <typename RunBatch>
void for_each_batch(std::size_t n, std::size_t batch_size,
                    RunBatch&& run_batch) {
  for (std::size_t lo = 0; lo < n; lo += batch_size) {
    run_batch(lo, std::min(n, lo + batch_size));
  }
}

std::vector<SessionOutcome> batched_sessions(const ImpairedLinkConfig& link,
                                             std::uint64_t base_seed,
                                             std::uint64_t stride,
                                             std::uint64_t offset,
                                             std::size_t n,
                                             std::size_t batch_size) {
  std::vector<SessionOutcome> out(n);
  for_each_batch(n, batch_size, [&](std::size_t lo, std::size_t hi) {
    DspWorkspace workspace;
    run_session_batch(link, base_seed, stride, offset, lo, hi, workspace,
                      [&](std::size_t t, const SessionOutcome& o) {
                        out[t] = o;
                      });
  });
  return out;
}

void expect_outcomes_memcmp_equal(const std::vector<SessionOutcome>& a,
                                  const std::vector<SessionOutcome>& b,
                                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(std::memcmp(&a[t], &b[t], sizeof(SessionOutcome)), 0)
        << what << " trial " << t << ": success " << int(a[t].success) << "/"
        << int(b[t].success) << " elapsed " << a[t].elapsed_s << "/"
        << b[t].elapsed_s << " retries " << a[t].retries << "/"
        << b[t].retries << " commands " << a[t].commands_sent << "/"
        << b[t].commands_sent << " stage " << int(a[t].failed_stage) << "/"
        << int(b[t].failed_stage);
  }
}

TEST_F(BatchPipelineTest, SessionBatchBitwiseMatchesScalarAcrossBatchSizes) {
  const std::size_t n = 131;  // ragged against every batch size below
  for (const double snr_db : {30.0, 6.0, 0.0}) {
    const ImpairedLinkConfig link = lockstep_config(snr_db);
    ASSERT_TRUE(lockstep_batchable(link));
    const auto reference = scalar_sessions(link, 555, 2, 1, n);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}, std::size_t{32},
                                    std::size_t{129}}) {
      const auto got = batched_sessions(link, 555, 2, 1, n, batch);
      expect_outcomes_memcmp_equal(reference, got, "lockstep batch");
    }
  }
}

TEST_F(BatchPipelineTest, SessionBatchMatchesScalarOnFallbackConfigs) {
  // Configs the lane engine cannot run in lockstep must still produce the
  // lone sessions' exact outcomes with per-lane impaired records.
  std::vector<ImpairedLinkConfig> configs;
  {
    ImpairedLinkConfig link = lockstep_config(10.0);
    link.impair.phase_noise_linewidth_hz = 50.0;
    configs.push_back(link);
  }
  {
    ImpairedLinkConfig link = lockstep_config(10.0);
    link.impair.bursts.rate_hz = 200.0;
    link.impair.bursts.mean_duration_s = 1e-4;
    configs.push_back(link);
  }
  {
    ImpairedLinkConfig link = lockstep_config(10.0);
    link.uplink = gen2::Miller::kM2;
    configs.push_back(link);
  }
  const std::size_t n = 37;
  for (const auto& link : configs) {
    EXPECT_FALSE(lockstep_batchable(link));
    const auto reference = scalar_sessions(link, 812, 1, 0, n);
    for (const std::size_t batch : {std::size_t{2}, std::size_t{16}}) {
      const auto got = batched_sessions(link, 812, 1, 0, n, batch);
      expect_outcomes_memcmp_equal(reference, got, "fallback batch");
    }
  }
}

TEST_F(BatchPipelineTest, SessionBatchHandlesEdgeConfigs) {
  // max_attempts < 1: the scalar attempt loop never runs (immediate Query
  // failure); an unpowered link dies in the charge stage.
  ImpairedLinkConfig no_attempts = lockstep_config(30.0);
  no_attempts.recovery.max_attempts = 0;
  ImpairedLinkConfig unpowered = lockstep_config(30.0);
  unpowered.medium_loss_db = 40.0;  // kills the charge amplitude
  for (const auto& link : {no_attempts, unpowered}) {
    const auto reference = scalar_sessions(link, 99, 1, 0, 9);
    const auto got = batched_sessions(link, 99, 1, 0, 9, 4);
    expect_outcomes_memcmp_equal(reference, got, "edge config");
  }
  const auto charge_fail = batched_sessions(unpowered, 99, 1, 0, 1, 4);
  EXPECT_EQ(charge_fail[0].failed_stage,
            static_cast<std::uint8_t>(SessionStage::kCharge));
  EXPECT_EQ(charge_fail[0].powered, 0);
}

// --- BER batches vs lone probes --------------------------------------------

TEST_F(BatchPipelineTest, BerBatchBitwiseMatchesScalar) {
  const std::size_t n = 131;
  const std::size_t payload_bits = 96;
  for (const double snr_db : {30.0, 8.0, 0.0}) {
    const ImpairedLinkConfig link = lockstep_config(snr_db);
    const auto probes = [&](std::size_t batch) {
      std::vector<BerOutcome> out(n);
      for_each_batch(n, batch, [&](std::size_t lo, std::size_t hi) {
        DspWorkspace workspace;
        run_ber_batch(link, payload_bits, 321, 2, 0, lo, hi, workspace,
                      [&](std::size_t t, const BerOutcome& o) { out[t] = o; });
      });
      return out;
    };
    // Batch 1 is a lone probe per trial (pinned by session_golden_test).
    const std::vector<BerOutcome> reference = probes(1);
    for (const std::size_t batch : {std::size_t{7}, std::size_t{32},
                                    std::size_t{129}}) {
      const std::vector<BerOutcome> got = probes(batch);
      for (std::size_t t = 0; t < n; ++t) {
        EXPECT_EQ(std::memcmp(&reference[t], &got[t], sizeof(BerOutcome)), 0)
            << "snr " << snr_db << " batch " << batch << " trial " << t
            << ": bit_errors " << reference[t].bit_errors << "/"
            << got[t].bit_errors;
      }
    }
  }
}

// --- Whole sweeps: batched JSON == scalar JSON -----------------------------

WaterfallConfig waterfall_case() {
  WaterfallConfig config;
  config.link.recovery = RecoveryPolicy::retries(1);
  config.snr_points_db = {24.0, 12.0, 4.0};
  config.trials_per_point = 29;
  config.payload_bits = 64;
  return config;
}

MatrixConfig matrix_case() {
  MatrixConfig config;
  config.link.recovery = RecoveryPolicy::retries(1);
  config.media = {{"water", 2.0}, {"gastric", 9.0}};
  config.snr_points_db = {20.0, 6.0};
  config.antenna_counts = {1, 3};
  config.trials_per_cell = 13;
  return config;
}

TEST_F(BatchPipelineTest, WaterfallJsonInvariantUnderBatchSize) {
  auto run = [&](std::size_t batch) {
    WaterfallConfig config = waterfall_case();
    config.batch.batch_size = batch;
    Rng rng(1313);
    return waterfall_json(run_ber_waterfall(config, rng));
  };
  const std::string reference = run(1);
  for (const std::size_t batch : {std::size_t{2}, std::size_t{7},
                                  std::size_t{32}, std::size_t{129}}) {
    EXPECT_EQ(run(batch), reference) << "batch " << batch;
  }
}

TEST_F(BatchPipelineTest, MatrixJsonInvariantUnderBatchSize) {
  auto run = [&](std::size_t batch) {
    MatrixConfig config = matrix_case();
    config.batch.batch_size = batch;
    Rng rng(1717);
    return matrix_json(run_session_matrix(config, rng));
  };
  const std::string reference = run(1);
  for (const std::size_t batch : {std::size_t{2}, std::size_t{13},
                                  std::size_t{64}}) {
    EXPECT_EQ(run(batch), reference) << "batch " << batch;
  }
}

TEST_F(BatchPipelineTest, DepthSweepJsonInvariantUnderBatchSize) {
  auto run = [&](std::size_t batch) {
    DepthSweepConfig config;
    config.link.recovery = RecoveryPolicy::retries(1);
    config.depths_m = {0.02, 0.06, 0.10};
    config.trials_per_point = 17;
    config.batch.batch_size = batch;
    Rng rng(4141);
    return depth_sweep_json(run_success_vs_depth(config, rng));
  };
  const std::string reference = run(1);
  for (const std::size_t batch : {std::size_t{4}, std::size_t{17},
                                  std::size_t{32}}) {
    EXPECT_EQ(run(batch), reference) << "batch " << batch;
  }
}

// --- Batch-size knob resolution --------------------------------------------

TEST_F(BatchPipelineTest, ResolveBatchSizePrecedence) {
  EXPECT_EQ(resolve_batch_size(BatchConfig{.batch_size = 5}), 5u);
  set_default_batch_size(8);
  EXPECT_EQ(default_batch_size(), 8u);
  EXPECT_EQ(resolve_batch_size(BatchConfig{}), 8u);
  EXPECT_EQ(resolve_batch_size(BatchConfig{.batch_size = 3}), 3u);
  set_default_batch_size(0);
  EXPECT_EQ(resolve_batch_size(BatchConfig{}), 1u);
}

TEST_F(BatchPipelineTest, EnvBatchSizeRequiresAFullIntegerParse) {
  const char* saved = std::getenv("IVNET_BATCH");
  const std::string saved_value = saved ? saved : "";
  const bool had_env = saved != nullptr;
  const auto with_env = [](const char* value) {
    ::setenv("IVNET_BATCH", value, 1);
    return default_batch_size();
  };
  set_default_batch_size(0);  // let the environment decide
  EXPECT_EQ(with_env("32"), 32u);
  EXPECT_EQ(with_env("1"), 1u);
  // "32abc" once parsed as 32 via strtoul's longest-prefix rule; a typo'd
  // knob must fall back to the scalar default, not half-apply.
  EXPECT_EQ(with_env("32abc"), 1u);
  EXPECT_EQ(with_env("abc"), 1u);
  EXPECT_EQ(with_env("0"), 1u);
  EXPECT_EQ(with_env(""), 1u);
  EXPECT_EQ(with_env("-4"), 1u);
  EXPECT_EQ(with_env(" 32"), 1u);
  EXPECT_EQ(with_env("99999999999999999999"), 1u);  // out of range
  if (had_env) {
    ::setenv("IVNET_BATCH", saved_value.c_str(), 1);
  } else {
    ::unsetenv("IVNET_BATCH");
  }
}

// --- Workspace arena reuse ---------------------------------------------------

TEST_F(BatchPipelineTest, WorkspaceBestFitCheckoutRecyclesSmallestFit) {
  DspWorkspace ws;
  auto big = ws.acquire_real(1000);
  auto small = ws.acquire_real(100);
  const std::size_t big_cap = big.capacity();
  const std::size_t small_cap = small.capacity();
  ASSERT_GE(big_cap, 1000u);
  ws.release(std::move(big));
  ws.release(std::move(small));
  ASSERT_EQ(ws.pooled_real(), 2u);
  // A 50-sample checkout must take the SMALL parked buffer, not the big one.
  auto buf = ws.acquire_real(50);
  EXPECT_EQ(buf.capacity(), small_cap);
  // A too-big request falls back to the largest parked buffer and grows it.
  auto buf2 = ws.acquire_real(1500);
  EXPECT_GE(buf2.capacity(), 1500u);
  EXPECT_EQ(ws.pooled_real(), 0u);
  ws.release(std::move(buf));
  ws.release(std::move(buf2));
}

TEST_F(BatchPipelineTest, WorkspaceHighWaterTracksCapacityGrowth) {
  DspWorkspace ws;
  EXPECT_EQ(ws.high_water_bytes(), 0u);
  auto a = ws.acquire_real(100);
  const std::size_t after_first = ws.high_water_bytes();
  EXPECT_GE(after_first, 100 * sizeof(double));
  ws.release(std::move(a));
  // Recycled checkout: no growth, no high-water movement.
  auto b = ws.acquire_real(60);
  EXPECT_EQ(ws.high_water_bytes(), after_first);
  // Growth while a buffer is checked out stacks on the live total.
  auto c = ws.acquire_real(300);
  EXPECT_GE(ws.high_water_bytes(), after_first + 300 * sizeof(double));
  ws.release(std::move(b));
  ws.release(std::move(c));
}

// --- Batch-grained dispatch helpers ----------------------------------------

TEST_F(BatchPipelineTest, BatchedReduceRaggedBatchSums) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    set_parallel_threads(threads);
    for (const std::size_t batch : {std::size_t{1}, std::size_t{7},
                                    std::size_t{64}, std::size_t{200}}) {
      const std::size_t n = 103;
      const std::uint64_t total = batched_reduce<std::uint64_t>(
          n, batch, std::uint64_t{0},
          [&](std::size_t lo, std::size_t hi) {
            EXPECT_LE(hi - lo, batch == 0 ? std::size_t{1} : batch);
            std::uint64_t s = 0;
            for (std::size_t i = lo; i < hi; ++i) s += i;
            return s;
          },
          [](std::uint64_t a, std::uint64_t b) { return a + b; });
      EXPECT_EQ(total, static_cast<std::uint64_t>(n) * (n - 1) / 2)
          << "threads " << threads << " batch " << batch;
    }
  }
}

}  // namespace
}  // namespace ivnet
