// Conservative window-barrier executor for spatially sharded simulations.
//
// The engine alternates two phases:
//
//   plan    (serial)   — exchange cross-shard messages accumulated during
//                        the previous window and pick the next barrier time;
//   advance (parallel) — every shard runs its own Scheduler to the barrier.
//
// The caller owns all sharding semantics (message routing, merge order,
// lookahead); this class owns only the thread pool and the barrier protocol,
// so it can be tested in isolation and reused by any shard-shaped workload.
//
// The pool is persistent: workers are spawned once (lazily, on the first
// parallel run) and parked on a condition variable between windows, so a run
// with tens of thousands of sub-millisecond windows pays one notify/wait
// round-trip per window instead of a thread spawn + join.  run() is
// repeatable — the sharded engine calls it once per run_until() span
// (warmup, measurement, drain) against the same pool.
//
// Determinism: shards — not threads — are the unit of work.  Worker w always
// owns shards {w, w+T, w+2T, ...} and shards never share mutable state, so
// the thread count can only change wall-clock time, never results.  The
// shard→worker map is fixed at construction, which keeps each shard's
// working set resident on the same core (and NUMA node, when pinned) across
// every window of the run.
//
// Exceptions: a throw from advance() stops the run after the current window;
// the first failure in shard-index order is rethrown from run() after the
// window barrier.  The pool survives a throw and can run again.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/time.hpp"

namespace rmacsim {

class WindowExecutor {
public:
  // `plan` returns the next barrier time, or SimTime::max() to stop.
  // `advance(shard, until)` advances one shard; called concurrently for
  // distinct shards, never concurrently for the same shard.
  using PlanFn = std::function<SimTime()>;
  using AdvanceFn = std::function<void(std::size_t shard, SimTime until)>;
  // Runs on a pool thread at the start of every window it works, before any
  // advance() call — the seam for per-thread setup such as profiler
  // attachment (idempotent; a thread-local store per window is noise next to
  // advancing a shard).
  using WorkerHook = std::function<void(unsigned worker)>;

  // `threads` is a request: 0 means one thread per shard; the effective
  // count is clamped to [1, shards].  threads() reports the resolution.
  // `pin_workers` requests best-effort CPU affinity (worker w → CPU
  // w % hardware_concurrency on Linux; a no-op elsewhere or on failure),
  // keeping the shard→worker→core placement stable for cache and NUMA
  // locality.
  WindowExecutor(std::size_t shards, unsigned threads, PlanFn plan, AdvanceFn advance,
                 bool pin_workers = false);
  ~WindowExecutor();

  WindowExecutor(const WindowExecutor&) = delete;
  WindowExecutor& operator=(const WindowExecutor&) = delete;

  // Install/replace the per-window worker hook.  Call only between runs.
  void set_worker_hook(WorkerHook hook) { hook_ = std::move(hook); }

  // Per-window wall-clock timing (window telemetry).  When enabled, the
  // executor records for the most recent window: each worker's execute span
  // (work publication to its barrier arrival), its barrier stall (arrival to
  // the last worker's arrival), and the uniform parked span before the
  // window (the serial plan phase).  Totals live in WindowTelemetry; this
  // class only keeps the last window so the plan phase of window k+1 can
  // read window k's spans — the barrier handshake orders those reads.  Costs
  // a few steady_clock reads per window; off by default.  Call only between
  // runs.
  void set_collect_timing(bool on) noexcept { collect_ = on; }
  [[nodiscard]] const std::vector<std::uint64_t>& last_execute_ns() const noexcept {
    return last_exec_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& last_stall_ns() const noexcept {
    return last_stall_;
  }
  [[nodiscard]] std::uint64_t last_wait_ns() const noexcept { return last_wait_ns_; }

  void run();

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] bool pinning_requested() const noexcept { return pin_; }

private:
  void run_serial();
  void run_parallel();
  void start_pool();
  void worker_main(unsigned w);
  void dispatch_window(SimTime barrier);

  std::size_t shards_;
  unsigned threads_;
  PlanFn plan_;
  AdvanceFn advance_;
  WorkerHook hook_;
  bool pin_;
  bool collect_{false};
  std::uint64_t windows_{0};

  // Timing state (valid only while collect_): per-worker spans of the last
  // window plus the wall instant the previous window (or run) ended.
  // Workers write arrive_ns_[w] before taking the arrival lock; the main
  // thread reads after the cv_done_ wakeup, so the mutex orders every pair.
  std::vector<std::uint64_t> arrive_ns_;
  std::vector<std::uint64_t> last_exec_;
  std::vector<std::uint64_t> last_stall_;
  std::uint64_t last_wait_ns_{0};
  std::uint64_t idle_from_ns_{0};

  // Generation-counter barrier.  The main thread publishes barrier_time_ and
  // bumps generation_ under the mutex; workers wake on cv_work_, advance
  // their shards, and the last arrival signals cv_done_.  One mutex, two
  // condvars, zero allocations per window.
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t generation_{0};
  unsigned arrived_{0};
  bool stop_{false};
  SimTime barrier_time_{SimTime::zero()};
  // One slot per shard: a worker never writes another worker's slots, and
  // the arrival handshake orders every write against the main thread's reads.
  std::vector<std::exception_ptr> errors_;
  std::vector<std::thread> pool_;
};

}  // namespace rmacsim
