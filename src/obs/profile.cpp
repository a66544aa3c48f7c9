#include "obs/profile.hpp"

namespace apt::obs {

const char* to_string(Counter counter) noexcept {
  switch (counter) {
    case Counter::kPolicyPasses:
      return "policy_passes";
    case Counter::kPolicyDecisions:
      return "policy_decisions";
    case Counter::kReadyMarked:
      return "ready_marked";
    case Counter::kReadyCompactions:
      return "ready_compactions";
    case Counter::kReadyEntriesMoved:
      return "ready_entries_moved";
    case Counter::kEventsProcessed:
      return "events_processed";
    case Counter::kHedgeChecks:
      return "hedge_checks";
    case Counter::kTransfersStarted:
      return "transfers_started";
    case Counter::kArrivals:
      return "arrivals";
    case Counter::kRetirements:
      return "retirements";
    case Counter::kTmLinksScanned:
      return "tm_links_scanned";
    case Counter::kTmProjectionsPopped:
      return "tm_projections_popped";
    case Counter::kTmDrainReads:
      return "tm_drain_reads";
    case Counter::kCount:
      break;
  }
  return "unknown";
}

const char* to_string(Timer timer) noexcept {
  switch (timer) {
    case Timer::kPolicyPass:
      return "policy_pass";
    case Timer::kEventLoopAdvance:
      return "event_loop_advance";
    case Timer::kDrainQueues:
      return "drain_queues";
    case Timer::kTmSolveFull:
      return "tm_solve_full";
    case Timer::kTmSolveIncremental:
      return "tm_solve_incremental";
    case Timer::kCount:
      break;
  }
  return "unknown";
}

ProfileSnapshot Profile::snapshot() const {
  ProfileSnapshot snap;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    snap.counters.push_back(
        {to_string(static_cast<Counter>(i)), counts_[i]});
  }
  for (std::size_t i = 0; i < timers_.size(); ++i) {
    const TimerCell& cell = timers_[i];
    if (cell.count == 0) continue;
    snap.timers.push_back({to_string(static_cast<Timer>(i)), cell.count,
                           cell.total_ms, cell.max_ms});
  }
  return snap;
}

}  // namespace apt::obs
