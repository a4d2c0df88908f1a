// Per-thread scratch arena for hot-path temporaries (GEMM packing panels,
// edge-tile staging, the lane convolutions' padded input and tap table).
// Buffers grow monotonically and are reused across calls, so the steady
// state performs no heap allocation.
//
// Lifetime rules (see README "Performance & parallelism"):
//   - Scratch::tls() hands out buffers owned by the *calling thread*.  A
//     buffer is valid from the buffer() call until the current leaf task
//     returns or the same slot is requested again on this thread —
//     whichever comes first.
//   - Never hold a scratch pointer across a util::parallel_for call: the
//     work-assisting pool may run another queued task on this thread while
//     the caller waits, and that task may claim the same slot.  (GEMM
//     packing obeys this: each macro-tile body packs, computes, and writes
//     its output without ever re-entering the pool.)
//   - State that must outlive a call or travel between threads (im2col
//     matrices kept for backward, per-shard gradient partials reduced by the
//     caller) belongs in per-layer member buffers, not in the arena.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

namespace bprom::util {

class Scratch {
 public:
  /// Fixed slot ids: one live buffer per slot per thread.  Users that need
  /// two coexisting buffers (e.g. the A and B packing panels of one GEMM
  /// macro-tile) must use distinct slots.
  enum Slot : std::size_t {
    kGemmPackA = 0,
    kGemmPackB,
    /// Squashed border fill / additive perturbation field of one
    /// VisualPrompt::apply call (vp/prompt.cpp).
    kPromptField,
    /// Zero-bordered copy of a padded Conv2d's input chunk and the
    /// layer's tap-offset table, for one lane convolution
    /// (tensor/lane_conv.cpp).
    kLanePadded,
    kLaneTaps,
    kSlotCount,
  };

  /// The calling thread's arena.
  static Scratch& tls();

  /// A buffer of `count` elements of T in `slot`.  Contents are
  /// unspecified; the capacity persists (and only grows) across calls.
  template <typename T>
  T* buffer(Slot slot, std::size_t count) {
    std::vector<unsigned char>& bytes = slots_[slot];
    const std::size_t need = count * sizeof(T);
    // This is the arena's single sanctioned growth point: capacity only
    // ever ratchets up, so steady-state calls never allocate.
    // bprom-lint: allow(hot-path-alloc)
    if (bytes.size() < need) bytes.resize(need);
    // operator new (behind std::allocator) aligns for every fundamental
    // type, so the reinterpret below is safe for float/double panels.
    return reinterpret_cast<T*>(bytes.data());
  }

 private:
  std::array<std::vector<unsigned char>, kSlotCount> slots_;
};

}  // namespace bprom::util
