// Reusable scratch-buffer arena for the sample-domain session pipeline.
//
// Every session trial builds per-command envelopes and a backscatter record
// of a few thousand samples each. A DspWorkspace keeps returned `double`
// buffers on a free list so steady-state trials run allocation-free: the
// campaign engine shards thousands of cells, and each cell's trials
// recycle the same few buffers. Checkouts are best-fit by
// capacity (smallest parked buffer that already holds `n`), so mixed-size
// checkout patterns — a batch cycling small envelopes and large
// backscatter records — recycle instead of regrowing.
//
// Ownership rules (see docs/ARCHITECTURE.md, "DspWorkspace"):
//  - A workspace is single-threaded state. Give each session/thread its
//    own; never share one across concurrent callers (the batch pipeline
//    makes one per batch, the service one per worker).
//  - acquire_real() returns a buffer resized to `n` with UNSPECIFIED
//    contents (it may hold stale samples from a previous checkout);
//    callers must fully overwrite it before reading.
//  - release() hands the buffer's capacity back for reuse. Releasing is an
//    optimization, not a correctness requirement: keeping (or moving out)
//    an acquired buffer is fine, the workspace just allocates a fresh one
//    next time.
//  - Nesting is safe: code that has buffers checked out and calls another
//    workspace-taking function simply sees the free list minus its own
//    checkouts. Prefer ScopedBuffer so early returns can't leak a
//    checkout.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace ivnet {

class DspWorkspace {
 public:
  /// Check out a buffer resized to `n`. Contents unspecified.
  std::vector<double> acquire_real(std::size_t n);

  /// Return a buffer's storage to the free list (size is irrelevant; only
  /// capacity is recycled).
  void release(std::vector<double>&& buf);

  /// Buffers currently parked on the free list (for tests/telemetry).
  std::size_t pooled_real() const { return real_pool_.size(); }

  /// Capacity bytes currently parked on the free list (checkouts excluded).
  std::size_t pooled_bytes() const;

  /// Drop every parked buffer, returning its capacity to the allocator.
  /// high_water_bytes() is unaffected (it is a peak, not a level); the live
  /// level drops by the parked bytes.
  void trim();

  /// Peak bytes of buffer capacity this workspace has grown (pooled plus
  /// checked out), counting each buffer's capacity from the moment an
  /// acquire grows it. Deterministic for a deterministic checkout sequence;
  /// the batched pipeline reports it as the workspace.high_water_bytes
  /// gauge so arena regrowth regressions show up in metrics snapshots.
  /// Approximate in one corner: buffers a caller keeps instead of
  /// releasing, and foreign buffers passed to release(), are not tracked.
  std::size_t high_water_bytes() const { return high_water_bytes_; }

 private:
  void grow_live(std::size_t grown_bytes);

  std::vector<std::vector<double>> real_pool_;
  std::size_t live_bytes_ = 0;
  std::size_t high_water_bytes_ = 0;
};

/// RAII checkout: acquires on construction, releases on destruction, so
/// code with multiple exits can't strand its scratch.
class ScopedBuffer {
 public:
  ScopedBuffer(DspWorkspace& ws, std::size_t n)
      : ws_(&ws), buf_(ws.acquire_real(n)) {}
  ~ScopedBuffer() { ws_->release(std::move(buf_)); }
  ScopedBuffer(const ScopedBuffer&) = delete;
  ScopedBuffer& operator=(const ScopedBuffer&) = delete;

  std::vector<double>& operator*() { return buf_; }
  std::vector<double>* operator->() { return &buf_; }
  double* data() { return buf_.data(); }
  const double* data() const { return buf_.data(); }
  std::size_t size() const { return buf_.size(); }

 private:
  DspWorkspace* ws_;
  std::vector<double> buf_;
};

}  // namespace ivnet
