#include "sim/window_exec.hpp"

#include <algorithm>
#include <chrono>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace rmacsim {

namespace {

void pin_to_cpu(unsigned worker) {
#ifdef __linux__
  const unsigned ncpu = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(worker % ncpu, &set);
  // Best-effort: containers and cgroup cpusets may reject the mask, and an
  // unpinned worker is merely slower, never wrong.
  (void)pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)worker;
#endif
}

[[nodiscard]] std::uint64_t mono_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Wait until `word` no longer holds `old` and return its new value: spin for
// up to `spin_ns`, then park in atomic::wait.  Acquire order throughout, so
// the caller sees every write the changer made before its release.
std::uint32_t await_change(const std::atomic<std::uint32_t>& word, std::uint32_t old,
                           std::uint64_t spin_ns) {
  std::uint32_t v = word.load(std::memory_order_acquire);
  if (v == old && spin_ns > 0) {
    const std::uint64_t deadline = mono_ns() + spin_ns;
    for (unsigned i = 1; v == old; ++i) {
      cpu_relax();
      v = word.load(std::memory_order_acquire);
      if (i % 64 == 0 && mono_ns() >= deadline) break;
    }
  }
  while (v == old) {
    word.wait(old, std::memory_order_acquire);
    v = word.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

unsigned WindowExecutor::usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0 && CPU_COUNT(&set) > 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned WindowExecutor::resolve_threads(std::size_t shards, unsigned requested) {
  const std::size_t want =
      requested == 0 ? std::min<std::size_t>(shards, usable_cpus()) : requested;
  return static_cast<unsigned>(std::clamp<std::size_t>(want, 1, shards));
}

WindowExecutor::WindowExecutor(std::size_t shards, unsigned threads, PlanFn plan,
                               AdvanceFn advance, bool pin_workers)
    : shards_{shards},
      threads_{resolve_threads(shards, threads)},
      spin_ns_{threads_ > usable_cpus() ? 0 : kSpinNs},
      plan_{std::move(plan)},
      advance_{std::move(advance)},
      pin_{pin_workers},
      arrive_ns_(threads_, 0),
      last_exec_(threads_, 0),
      last_stall_(threads_, 0),
      errors_(shards) {}

WindowExecutor::~WindowExecutor() {
  stop_ = true;
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (std::thread& t : pool_) t.join();
}

void WindowExecutor::start_pool() {
  if (!pool_.empty()) return;
  pool_.reserve(threads_ - 1);
  // Each worker starts from the generation current at spawn, so a window
  // published before the thread first runs is still seen as new.
  const std::uint32_t gen = generation_.load(std::memory_order_relaxed);
  for (unsigned w = 1; w < threads_; ++w) {
    pool_.emplace_back([this, w, gen] { worker_main(w, gen); });
  }
}

void WindowExecutor::worker_main(unsigned w, std::uint32_t seen) {
  if (pin_) pin_to_cpu(w);
  const std::uint32_t pool = threads_ - 1;
  for (;;) {
    seen = await_change(generation_, seen, spin_ns_);
    if (stop_) return;
    advance_owned(w, barrier_time_);
    if (collect_) arrive_ns_[w] = mono_ns();
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == pool) arrived_.notify_one();
  }
}

void WindowExecutor::advance_owned(unsigned w, SimTime until) {
  if (hook_) hook_(w);
  for (std::size_t s = w; s < shards_; s += threads_) {
    try {
      advance_(s, until);
    } catch (...) {
      errors_[s] = std::current_exception();
    }
  }
}

void WindowExecutor::dispatch_window(SimTime barrier) {
  const std::uint64_t t0 = collect_ ? mono_ns() : 0;
  barrier_time_ = barrier;
  arrived_.store(0, std::memory_order_relaxed);
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  advance_owned(0, barrier);
  if (collect_) arrive_ns_[0] = mono_ns();
  const std::uint32_t pool = threads_ - 1;
  for (std::uint32_t a = arrived_.load(std::memory_order_acquire); a != pool;) {
    a = await_change(arrived_, a, spin_ns_);
  }
  if (collect_) {
    std::uint64_t t_last = t0;
    for (unsigned w = 0; w < threads_; ++w) t_last = std::max(t_last, arrive_ns_[w]);
    for (unsigned w = 0; w < threads_; ++w) {
      last_exec_[w] = arrive_ns_[w] > t0 ? arrive_ns_[w] - t0 : 0;
      last_stall_[w] = t_last - std::max(arrive_ns_[w], t0);
    }
    last_wait_ns_ = t0 > idle_from_ns_ ? t0 - idle_from_ns_ : 0;
    idle_from_ns_ = t_last;
  }
}

void WindowExecutor::run() {
  start_pool();
  std::fill(errors_.begin(), errors_.end(), nullptr);
  if (collect_) idle_from_ns_ = mono_ns();
  for (;;) {
    // A failed window ends the run; the pool stays parked for the next one.
    for (const std::exception_ptr& e : errors_) {
      if (e != nullptr) std::rethrow_exception(e);
    }
    const SimTime next = plan_();
    if (next == SimTime::max()) return;
    ++windows_;
    dispatch_window(next);
  }
}

}  // namespace rmacsim
