#include "ivnet/signal/dsp_workspace.hpp"

namespace ivnet {
namespace {

/// Best-fit checkout: the free-list entry with the smallest capacity >= n,
/// or — when nothing is big enough — the largest entry (so one buffer grows
/// instead of several). The old LIFO policy regrew buffers pathologically
/// in batch loops: release a 460-cap and a 2700-cap buffer, then acquire
/// 460 → LIFO hands back the 2700-cap one, and the next acquire(2700) has
/// to regrow the 460-cap buffer. Best-fit makes a batch's steady state
/// allocation-free after the first trial. Linear scan: the pools hold a
/// handful of entries, so this is cheaper than keeping them sorted.
std::vector<double> best_fit_take(std::vector<std::vector<double>>& pool,
                                  std::size_t n) {
  std::size_t best = pool.size();
  std::size_t largest = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::size_t cap = pool[i].capacity();
    if (cap >= n && (best == pool.size() || cap < pool[best].capacity())) {
      best = i;
    }
    if (cap >= pool[largest].capacity()) largest = i;
  }
  if (best == pool.size()) best = largest;
  std::vector<double> buf = std::move(pool[best]);
  pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(best));
  return buf;
}

}  // namespace

std::vector<double> DspWorkspace::acquire_real(std::size_t n) {
  std::vector<double> buf;
  if (!real_pool_.empty()) buf = best_fit_take(real_pool_, n);
  const std::size_t before = buf.capacity() * sizeof(double);
  buf.resize(n);
  grow_live(buf.capacity() * sizeof(double) - before);
  return buf;
}

void DspWorkspace::release(std::vector<double>&& buf) {
  real_pool_.push_back(std::move(buf));
}

std::size_t DspWorkspace::pooled_bytes() const {
  std::size_t bytes = 0;
  for (const auto& buf : real_pool_) bytes += buf.capacity() * sizeof(double);
  return bytes;
}

void DspWorkspace::trim() {
  const std::size_t dropped = pooled_bytes();
  real_pool_.clear();
  real_pool_.shrink_to_fit();
  // Saturating: foreign buffers released into the pool were never counted
  // into live_bytes_, so dropping them must not underflow the level.
  live_bytes_ -= dropped < live_bytes_ ? dropped : live_bytes_;
}

void DspWorkspace::grow_live(std::size_t grown_bytes) {
  live_bytes_ += grown_bytes;
  if (live_bytes_ > high_water_bytes_) high_water_bytes_ = live_bytes_;
}

}  // namespace ivnet
