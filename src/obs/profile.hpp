// Allocation-free hot-path profiling: fixed enum-indexed counters and
// scoped wall-clock timers the engines stamp while simulating.
//
// Design constraints, in order:
//   1. Provably inert. An engine holds a `Profile*` that is null by
//      default; every instrumentation site is a null check. ScopedTimer
//      does not even read the clock when the profile is null, and nothing
//      here touches simulation state or RNG streams — enabling profiling
//      cannot change a single simulated bit.
//   2. Allocation-free on the hot path. Counters and timers live in
//      fixed std::arrays indexed by enum; add()/record() are a few loads
//      and stores. Allocation happens only in snapshot(), after the run.
//   3. Layering-neutral. This header is pure std (no dag/sim/net
//      includes), so net::TransferManager and sim::StreamMetrics can both
//      carry it without dependency cycles.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace apt::obs {

/// Monotonic event counters of one simulation run.
enum class Counter : std::size_t {
  kPolicyPasses,      ///< policy.on_event invocations
  kPolicyDecisions,   ///< assign() + enqueue() commitments
  kReadyMarked,       ///< kernels entering the ready set
  /// Ready-set compactions. The engines remove ready kernels in place and
  /// never compact, so this always reads 0; kept because perfbench reports
  /// it by name (stream.ready_compactions).
  kReadyCompactions,
  kEventsProcessed,   ///< popped event-queue entries (all kinds)
  kHedgeChecks,       ///< hedge-check events processed
  kTransfersStarted,  ///< fabric messages created
  kArrivals,          ///< stream admissions
  kRetirements,       ///< stream retirements
  kCount
};

/// Scoped wall-clock timers of one simulation run.
enum class Timer : std::size_t {
  kPolicyPass,         ///< one policy.on_event call
  kEventLoopAdvance,   ///< one advance_to_next_event pass
  kDrainQueues,        ///< one queue-head drain pass
  kTmSolveFull,        ///< TransferManager full max-min re-solve
  kTmSolveIncremental, ///< TransferManager incremental component re-solve
  kCount
};

const char* to_string(Counter counter) noexcept;
const char* to_string(Timer timer) noexcept;

/// Post-run copy of a Profile, safe to store in metrics/results after the
/// engine (and the Profile it wrote) are gone. Entries with zero counts
/// are omitted so exporters stay compact.
struct ProfileSnapshot {
  struct CounterEntry {
    std::string name;
    std::uint64_t count = 0;
  };
  struct TimerEntry {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
  };
  std::vector<CounterEntry> counters;
  std::vector<TimerEntry> timers;

  bool empty() const noexcept { return counters.empty() && timers.empty(); }
};

class Profile {
 public:
  void add(Counter counter, std::uint64_t n = 1) noexcept {
    counts_[static_cast<std::size_t>(counter)] += n;
  }

  void record(Timer timer, double elapsed_ms) noexcept {
    TimerCell& cell = timers_[static_cast<std::size_t>(timer)];
    ++cell.count;
    cell.total_ms += elapsed_ms;
    if (elapsed_ms > cell.max_ms) cell.max_ms = elapsed_ms;
  }

  std::uint64_t count(Counter counter) const noexcept {
    return counts_[static_cast<std::size_t>(counter)];
  }
  std::uint64_t timer_count(Timer timer) const noexcept {
    return timers_[static_cast<std::size_t>(timer)].count;
  }
  double timer_total_ms(Timer timer) const noexcept {
    return timers_[static_cast<std::size_t>(timer)].total_ms;
  }
  double timer_max_ms(Timer timer) const noexcept {
    return timers_[static_cast<std::size_t>(timer)].max_ms;
  }

  /// Copies the non-zero entries out (the only allocating operation).
  ProfileSnapshot snapshot() const;

 private:
  struct TimerCell {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double max_ms = 0.0;
  };

  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)>
      counts_{};
  std::array<TimerCell, static_cast<std::size_t>(Timer::kCount)> timers_{};
};

/// RAII timer: stamps `timer` on the given profile at scope exit. A null
/// profile makes construction and destruction free — the clock is never
/// read, so the disabled path costs one branch.
class ScopedTimer {
 public:
  ScopedTimer(Profile* profile, Timer timer) noexcept
      : profile_(profile), timer_(timer) {
    if (profile_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (!profile_) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    profile_->record(
        timer_,
        std::chrono::duration<double, std::milli>(elapsed).count());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profile* profile_;
  Timer timer_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace apt::obs
