// Pooled construction for Frame objects.
//
// Every frame on the air is built once (a MAC composes it) and then shared
// read-only by the medium's transmission record, trace records, and the
// delivery callbacks.  The sharing semantics stay std::shared_ptr<const
// Frame> — nothing downstream changes — but make_frame() places the control
// block and the Frame together in one block drawn from a thread-local
// freelist, so steady-state frame construction and destruction perform no
// heap allocation: a frame's block returns to the pool when its last
// reference drops and is reused by the next frame of the same size.
//
// The freelist is thread-local because a simulation loop runs wholly on one
// thread (a serial run, or one shard worker), which makes recycling
// lock-free.  A block freed on a different thread from the one that
// allocated it simply goes back to that thread's heap — correct, just not
// pooled.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "phy/frame.hpp"

namespace rmacsim {

namespace frame_pool {

// Raw size-bucketed block interface; make_frame() is the intended consumer,
// these are exposed for tests and diagnostics.
[[nodiscard]] void* allocate(std::size_t bytes);
void deallocate(void* p, std::size_t bytes) noexcept;

// Blocks sitting in this thread's freelist / handed out and not yet returned.
[[nodiscard]] std::size_t free_blocks() noexcept;
[[nodiscard]] std::size_t outstanding_blocks() noexcept;

// Release this thread's freelist and zero its counters.  Campaign workers
// call this per cell so pool gauges in the metrics snapshot reflect only the
// cell's own run — otherwise an in-process serial campaign (workers=0) would
// snapshot pool state inherited from earlier cells and break byte-identity
// with the one-process-per-cell path.
void reset() noexcept;

// Minimal allocator over the freelist for std::allocate_shared.
template <typename T>
struct Allocator {
  using value_type = T;

  Allocator() noexcept = default;
  template <typename U>
  Allocator(const Allocator<U>&) noexcept {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] T* allocate(std::size_t n) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "frame pool blocks use default operator-new alignment");
    return static_cast<T*>(frame_pool::allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept { frame_pool::deallocate(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const Allocator<U>&) const noexcept {
    return true;
  }
};

}  // namespace frame_pool

// Pool-backed replacement for std::make_shared<const Frame>(std::move(f)).
[[nodiscard]] inline FramePtr make_frame(Frame&& f) {
  return std::allocate_shared<const Frame>(frame_pool::Allocator<Frame>{}, std::move(f));
}

}  // namespace rmacsim
