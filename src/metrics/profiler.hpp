// Engine self-profiler: scoped wall-clock timers attributing run time to
// subsystems and event-callback sites.
//
// Usage: name a section once (static, process-lifetime id), then open an
// RMAC_PROF_SCOPE at the site.  When no profiler is attached to the current
// thread the scope is a single thread-local pointer null-check — the same
// zero-cost-when-unregistered discipline as the tracer and the metrics
// registry — so instrumented code ships enabled.
//
//   void Medium::begin_transmission(...) {
//     RMAC_PROF_SCOPE("phy.begin_transmission");
//     ...
//   }
//
// Scopes nest: each section accumulates *total* (inclusive) and *self*
// (exclusive of enclosed scopes) time, so the hotspot table answers "where
// does the wall clock actually go" rather than double-counting parents.
// Attachment is per-thread (the sharded engine runs shards on worker
// threads; each attaches its own profiler), but the section-name table
// is global and mutex-guarded, so ids minted on any thread agree.
//
// The profiler reads only the wall clock, never simulation state, and
// simulation code never reads the profiler — attaching it cannot perturb
// event order, golden digests, or any simulated metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace rmacsim {

using ProfSectionId = std::uint32_t;

// Global section-name interning; returns a stable id for `name` (which must
// outlive the process — pass string literals).
[[nodiscard]] ProfSectionId prof_section(const char* name);

class Profiler {
public:
  // Attach to / detach from the calling thread.  At most one profiler per
  // thread; attach replaces the previous one.
  void attach() noexcept;
  static void detach() noexcept;
  [[nodiscard]] static Profiler* current() noexcept { return t_current_; }

  struct SectionStats {
    std::string name;
    std::uint64_t calls{0};
    std::uint64_t total_ns{0};  // inclusive
    std::uint64_t self_ns{0};   // exclusive of nested scopes
  };
  struct Report {
    double wall_s{0.0};          // attach → report() wall time
    double accounted_s{0.0};     // Σ section self time
    std::vector<SectionStats> sections;  // sorted by self_ns, descending
  };
  [[nodiscard]] Report report() const;

  // --- scope bookkeeping (used by ProfScope; not part of the public API) --
  struct Frame {
    ProfSectionId section{0};
    std::uint64_t start_ns{0};
    std::uint64_t child_ns{0};  // time spent in nested scopes
  };
  void enter(ProfSectionId section) noexcept;
  void leave() noexcept;

  [[nodiscard]] static std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

private:
  struct Accum {
    std::uint64_t calls{0};
    std::uint64_t total_ns{0};
    std::uint64_t self_ns{0};
  };
  // Inline thread-local so current() compiles to one TLS load at every
  // RMAC_PROF_SCOPE site instead of an out-of-line call — scopes sit on
  // per-event paths where a function call is measurable.
  static inline thread_local Profiler* t_current_ = nullptr;
  std::vector<Accum> sections_;   // indexed by ProfSectionId
  std::vector<Frame> stack_;
  std::uint64_t attached_at_ns_{0};
};

// RAII profiling scope; no-op (one TLS load + branch) when no profiler is
// attached to this thread.
class ProfScope {
public:
  explicit ProfScope(ProfSectionId section) noexcept : prof_{Profiler::current()} {
    if (prof_ != nullptr) prof_->enter(section);
  }
  ~ProfScope() {
    if (prof_ != nullptr) prof_->leave();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

private:
  Profiler* prof_;
};

// Names the enclosing scope; the section id is minted once per site.
#define RMAC_PROF_SCOPE(name_literal)                                      \
  static const ::rmacsim::ProfSectionId rmac_prof_sid_ =                   \
      ::rmacsim::prof_section(name_literal);                               \
  ::rmacsim::ProfScope rmac_prof_scope_{rmac_prof_sid_}

}  // namespace rmacsim
