// The structured policy↔fabric estimation contract.
//
// SchedulerContext::input_transfer_ms answers one question with one number:
// the unloaded stall if a kernel were assigned somewhere now. That hides
// the traffic already queued on the fabric. TransferEstimate splits the
// price in two, and the engines fill the second half from live
// net::TransferManager state (predicted drain of each route link's
// in-flight bytes at the CURRENT max-min rates — not the unloaded
// bottleneck-bandwidth figure). Policies choose which reading to act on:
//
//   stall_ms          the classic unloaded estimate, bit-identical to what
//                     input_transfer_ms returns — comm-blind policies and
//                     noise-off goldens see no change
//   total_ms()        stall + predicted link queueing: the backlog-aware
//                     reading AG-net and APT-C rank with
//
// APT-Q prices the tail from the same two fields: it widens only the
// queueing term by the q-quantile of the run's noise multiplier (see
// core/apt.hpp).
#pragma once

#include "sim/system.hpp"

namespace apt::sim {

/// What assigning a ready kernel to a processor now would cost in input
/// movement, decomposed. Returned by SchedulerContext::transfer_estimate;
/// each field is a maximum over the predecessor edges, matching the
/// worst-case semantics of the legacy scalar.
struct TransferEstimate {
  /// Unloaded route estimate: max over predecessors of route head latency
  /// plus bytes over the route's bottleneck bandwidth — exactly the old
  /// input_transfer_ms value (0 when every input is local or the topology
  /// is ideal).
  TimeMs stall_ms = 0.0;

  /// Predicted extra wait from traffic already in flight: max over
  /// predecessor routes of the longest per-link drain time (each link's
  /// slowest in-flight message at current max-min rates). Always 0 on
  /// ideal topologies and on an idle fabric.
  TimeMs link_queueing_ms = 0.0;

  /// Backlog-aware point estimate: unloaded stall plus predicted queueing.
  TimeMs total_ms() const noexcept { return stall_ms + link_queueing_ms; }
};

}  // namespace apt::sim
