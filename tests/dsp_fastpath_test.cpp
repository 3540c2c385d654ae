// Pins the DSP fast paths that stay on the receive path: CorrelationNeedle
// (the FM0/Miller preamble search) against per-offset normalized_correlation,
// and DspWorkspace's scratch recycling.
//
// A fast path must produce each output by the identical sequence of
// floating-point operations as the plain form, so the correlation cases
// compare with memcmp-strict equality, not tolerances.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "ivnet/common/rng.hpp"
#include "ivnet/signal/correlate.hpp"
#include "ivnet/signal/dsp_workspace.hpp"

namespace ivnet {
namespace {

// --- CorrelationNeedle vs per-offset normalized_correlation. --------------

std::vector<double> random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(CorrelateFastPath, SlidingMatchesPerOffsetOracle) {
  const auto haystack = random_signal(400, 5);
  const auto needle = random_signal(37, 6);
  const auto fast = sliding_correlation(haystack, needle);
  ASSERT_EQ(fast.size(), haystack.size() - needle.size() + 1);
  for (std::size_t off = 0; off < fast.size(); ++off) {
    const double want = normalized_correlation(
        std::span(haystack).subspan(off, needle.size()), needle);
    ASSERT_EQ(std::memcmp(&fast[off], &want, sizeof(double)), 0)
        << "offset " << off;
  }
}

TEST(CorrelateFastPath, NeedleHandlesDegenerateWindows) {
  const std::vector<double> constant(8, 3.0);
  const auto needle = random_signal(8, 9);
  const CorrelationNeedle cached(needle);
  EXPECT_EQ(cached.correlate(constant), 0.0);  // zero-variance window
  EXPECT_EQ(cached.correlate(std::span<const double>{}), 0.0);
  const CorrelationNeedle flat(constant);
  EXPECT_EQ(flat.correlate(needle), 0.0);  // zero-variance needle
}

TEST(CorrelateFastPath, BestCorrelationFindsEmbeddedNeedle) {
  const auto needle = random_signal(25, 13);
  std::vector<double> haystack = random_signal(300, 14);
  for (std::size_t i = 0; i < needle.size(); ++i) {
    haystack[120 + i] = needle[i];
  }
  const auto peak = best_correlation(haystack, needle);
  EXPECT_EQ(peak.offset, 120u);
  EXPECT_NEAR(peak.value, 1.0, 1e-12);
}

// --- DspWorkspace recycling. ----------------------------------------------

TEST(DspWorkspace, RecyclesReleasedCapacity) {
  DspWorkspace ws;
  auto big = ws.acquire_real(100000);
  const double* storage = big.data();
  ws.release(std::move(big));
  EXPECT_EQ(ws.pooled_real(), 1u);
  // A smaller checkout reuses the parked capacity, not a fresh allocation.
  auto reused = ws.acquire_real(500);
  EXPECT_EQ(reused.data(), storage);
  EXPECT_EQ(ws.pooled_real(), 0u);
  ws.release(std::move(reused));
}

TEST(DspWorkspace, ScopedBufferReturnsOnScopeExit) {
  DspWorkspace ws;
  {
    ScopedBuffer a(ws, 64);
    ScopedBuffer b(ws, 32);
    EXPECT_EQ(a.size(), 64u);
    EXPECT_EQ(b.size(), 32u);
    EXPECT_EQ(ws.pooled_real(), 0u);
  }
  EXPECT_EQ(ws.pooled_real(), 2u);
}

}  // namespace
}  // namespace ivnet
