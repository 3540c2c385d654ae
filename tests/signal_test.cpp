// Tests for ivnet/signal: waveform synthesis, envelopes, correlation and
// the thermal noise floor.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/common/units.hpp"
#include "ivnet/gen2/fm0.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/envelope.hpp"
#include "ivnet/signal/noise.hpp"
#include "ivnet/signal/waveform.hpp"

namespace ivnet {
namespace {

TEST(Waveform, ToneHasUnitMagnitudeAndCorrectPhaseRate) {
  const double fs = 10e3;
  const auto tone = make_tone(100.0, 0.3, 1000, fs);
  ASSERT_EQ(tone.size(), 1000u);
  for (std::size_t i = 0; i < tone.size(); i += 97) {
    EXPECT_NEAR(std::abs(tone.samples[i]), 1.0, 1e-9);
    const double expect = wrap_phase(0.3 + kTwoPi * 100.0 * tone.time_of(i));
    EXPECT_NEAR(wrap_phase(std::arg(tone.samples[i])), expect, 1e-6);
  }
}

TEST(Waveform, ToneLongRunStaysNormalized) {
  const auto tone = make_tone(137.0, 0.0, 200000, 20e3);
  EXPECT_NEAR(std::abs(tone.samples.back()), 1.0, 1e-9);
}

TEST(Waveform, MultitonePeaksAtNWithZeroPhases) {
  const std::vector<double> offsets = {0, 7, 20, 49, 68};
  const std::vector<double> phases(5, 0.0);
  const auto wave = make_multitone(offsets, phases, {}, 2000, 2000.0);
  // At t = 0 all tones align: |sum| = 5.
  EXPECT_NEAR(std::abs(wave.samples[0]), 5.0, 1e-9);
  EXPECT_NEAR(peak_amplitude(wave), 5.0, 1e-6);
}

TEST(Waveform, AccumulateAndScale) {
  Waveform acc;
  const auto tone = make_tone(10.0, 0.0, 100, 1000.0);
  accumulate(acc, tone, {2.0, 0.0});
  accumulate(acc, tone, {1.0, 0.0});
  EXPECT_NEAR(std::abs(acc.samples[0]), 3.0, 1e-12);
  scale(acc, {0.5, 0.0});
  EXPECT_NEAR(std::abs(acc.samples[0]), 1.5, 1e-12);
}

TEST(Waveform, ModulateEnvelopeZeroesWhereEnvelopeZero) {
  const std::vector<double> env = {1.0, 0.0, 0.5, 1.0};
  const auto wave = modulate_envelope(env, 50.0, 0.0, 1000.0);
  EXPECT_NEAR(std::abs(wave.samples[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(wave.samples[1]), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(wave.samples[2]), 0.5, 1e-12);
}

TEST(Waveform, EnergyAndMeanPower) {
  const auto tone = make_tone(100.0, 0.0, 1000, 1000.0);
  EXPECT_NEAR(mean_power(tone), 1.0, 1e-9);
  EXPECT_NEAR(energy(tone), 1.0, 1e-9);  // 1 s of unit power
}

TEST(Waveform, PeakIndexFindsMax) {
  Waveform wave;
  wave.sample_rate_hz = 1.0;
  wave.samples = {cplx{0.1, 0}, cplx{0, 2.0}, cplx{0.5, 0.5}};
  EXPECT_EQ(peak_index(wave), 1u);
  EXPECT_NEAR(peak_amplitude(wave), 2.0, 1e-12);
}

TEST(Envelope, MagnitudeAndFluctuation) {
  Waveform wave;
  wave.sample_rate_hz = 1.0;
  wave.samples = {cplx{1.0, 0}, cplx{0, 0.5}, cplx{0.8, 0.6}};
  const auto env = envelope(wave);
  EXPECT_NEAR(env[0], 1.0, 1e-12);
  EXPECT_NEAR(env[1], 0.5, 1e-12);
  EXPECT_NEAR(env[2], 1.0, 1e-12);
  EXPECT_NEAR(fluctuation(env), 0.5, 1e-12);
}

TEST(Envelope, MovingAverageSmooths) {
  const std::vector<double> x = {0, 1, 0, 1, 0, 1, 0, 1};
  const auto smooth = moving_average(x, 4);
  for (std::size_t i = 4; i < smooth.size(); ++i) {
    EXPECT_NEAR(smooth[i], 0.5, 1e-12);
  }
}

TEST(Envelope, RcLowpassConvergesToDc) {
  const std::vector<double> x(1000, 2.0);
  const auto y = rc_lowpass(x, 1e-3, 100e3);
  EXPECT_NEAR(y.back(), 2.0, 1e-3);
}

TEST(Envelope, SliceAndMidpoint) {
  const std::vector<double> env = {1.0, 0.1, 0.9, 0.2};
  const double th = midpoint_threshold(env);
  EXPECT_NEAR(th, 0.55, 1e-12);
  const auto bits = slice(env, th);
  EXPECT_TRUE(bits[0]);
  EXPECT_FALSE(bits[1]);
  EXPECT_TRUE(bits[2]);
  EXPECT_FALSE(bits[3]);
}

TEST(Correlate, IdenticalSignalsGiveOne) {
  const std::vector<double> a = {1, -1, 1, 1, -1, 0.5};
  EXPECT_NEAR(normalized_correlation(a, a), 1.0, 1e-12);
}

TEST(Correlate, InvertedSignalsGiveMinusOne) {
  const std::vector<double> a = {1, -1, 1, 1, -1, 0.5};
  std::vector<double> b = a;
  for (auto& x : b) x = -x;
  EXPECT_NEAR(normalized_correlation(a, b), -1.0, 1e-12);
}

TEST(Correlate, FindsShiftedNeedle) {
  std::vector<double> haystack(200, 0.0);
  const std::vector<double> needle = {1, -1, 1, -1, 1, 1, -1, -1};
  for (std::size_t i = 0; i < needle.size(); ++i) haystack[57 + i] = needle[i];
  const auto peak = best_correlation(haystack, needle);
  EXPECT_EQ(peak.offset, 57u);
  EXPECT_GT(peak.value, 0.99);
}

TEST(Correlate, ComplexCorrelationPhaseInvariant) {
  const auto a = make_tone(100.0, 0.0, 256, 10e3);
  const auto b = make_tone(100.0, 1.2, 256, 10e3);  // same tone, phase shift
  EXPECT_NEAR(complex_correlation(a.samples, b.samples), 1.0, 1e-9);
}

TEST(Correlate, DegenerateInputsReturnZero) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> shorter = {1.0, 2.0};
  const std::vector<double> constant = {4.0, 4.0, 4.0};
  const std::vector<double> empty;
  const std::vector<double> single = {7.0};
  // Mismatched lengths, empty spans, zero variance (constant / length-1):
  // all documented to return 0 rather than NaN.
  EXPECT_EQ(normalized_correlation(a, shorter), 0.0);
  EXPECT_EQ(normalized_correlation(empty, empty), 0.0);
  EXPECT_EQ(normalized_correlation(a, constant), 0.0);
  EXPECT_EQ(normalized_correlation(constant, constant), 0.0);
  EXPECT_EQ(normalized_correlation(single, single), 0.0);
  // Searching with a degenerate needle is equally quiet.
  EXPECT_EQ(best_correlation(a, empty).value, 0.0);
  EXPECT_EQ(best_correlation(shorter, a).value, 0.0);
}

TEST(Correlate, FindsFm0PreambleAtFinalValidOffset) {
  // The tag's 12-half-bit FM0 preamble ("110100100011") planted at the LAST
  // offset the sliding search can reach: offset = haystack - needle. An
  // off-by-one in the search bound would miss it entirely.
  const double blf_hz = 100e3;
  const double fs = 800e3;
  const auto needle = gen2::fm0_preamble_template(blf_hz, fs);
  ASSERT_FALSE(needle.empty());
  std::vector<double> haystack(needle.size() + 333, 0.0);
  const std::size_t final_offset = haystack.size() - needle.size();
  for (std::size_t i = 0; i < needle.size(); ++i) {
    haystack[final_offset + i] = needle[i];
  }
  const auto peak = best_correlation(haystack, needle);
  EXPECT_EQ(peak.offset, final_offset);
  EXPECT_GT(peak.value, 0.99);
}

TEST(Noise, ThermalFloorMagnitude) {
  // kTB at 290 K over 1 Hz is -174 dBm; over 1 MHz with NF 6 dB: -108 dBm.
  const double p = thermal_noise_power(1e6, 6.0);
  EXPECT_NEAR(watts_to_dbm(p), -108.0, 0.3);
}

// Property sweep: multitone peak amplitude never exceeds the tone count.
class MultitonePeakBound : public ::testing::TestWithParam<int> {};

TEST_P(MultitonePeakBound, PeakAtMostN) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 77 + 1);
  std::vector<double> offsets(n), phases(n);
  for (int i = 0; i < n; ++i) {
    offsets[i] = static_cast<double>(rng.uniform_int(0, 200));
    phases[i] = rng.phase();
  }
  const auto wave = make_multitone(offsets, phases, {}, 4096, 4096.0);
  EXPECT_LE(peak_amplitude(wave), static_cast<double>(n) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(N, MultitonePeakBound,
                         ::testing::Values(1, 2, 3, 5, 8, 10, 16));

}  // namespace
}  // namespace ivnet
