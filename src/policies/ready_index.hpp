// Per-processor index over the ready set, for the policies that visit ready
// kernels in a fixed order and can only act through an idle processor (MET,
// APT and its variants in FIFO order, APT-Ranked highest rank first).
//
// Scanning the whole ready set on every pass with an idle processor costs
// O(ready) per event, which dominates once thousands of kernels are
// waiting. The index files each kernel once, when it first shows up at the
// back of the ready set, under every processor the policy's filter admits.
// A pass then merges only the buckets of the currently idle processors, in
// the policy's order, and runs the policy's unchanged per-kernel decision
// on each kernel it meets. The result equals the full scan's, provided
// that:
//   * the filter admits every processor the decision could pick (a kernel
//     filed under no idle processor is one the scan would skip), and
//   * the filter and the order depend only on facts fixed once the kernel
//     is ready.
// The idle set only shrinks within a pass, so skipping a kernel can never
// hide an assignment the scan would have made later in the same pass. When
// the filter is a strict superset, the decision may reject a candidate;
// the walk then sets it aside and files it again when the pass ends.
//
// The order is FIFO, or (priority, ready order) when the pass is given a
// priority: highest priority first, ready order among equal priorities,
// which is a stable sort of the ready set by priority. FIFO buckets are
// deques in filing order; prioritized buckets are binary heaps, each in one
// contiguous vector.
//
// New kernels come from SchedulerContext::ready_from(), so a pass reads only
// the kernels that became ready since the last one. That relies on the
// ready-set contract of SchedulerContext::ready(): only this policy's own
// commits remove kernels, and new ones are appended at the back. So the
// first `filed_` ready kernels are exactly those filed earlier and still
// waiting, and the rest are new.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/policy.hpp"
#include "util/contracts.hpp"

namespace apt::policies {

class ReadyIndex {
 public:
  /// Forgets every filed kernel; call from Policy::prepare().
  void reset(std::size_t proc_count);

  /// One policy pass in FIFO order. Files the kernels that became ready
  /// since the last pass under each processor `admits(node, proc)` accepts.
  /// Then it visits, in ready order, every filed kernel with an admitting
  /// processor that is idle at the time, until no processor is idle.
  /// `decide(node)` runs the policy's per-kernel decision and returns true
  /// when it committed `node`.
  template <typename Admits, typename Decide>
  void pass(sim::SchedulerContext& ctx, Admits&& admits, Decide&& decide) {
    walk(ctx, admits, decide, [](dag::NodeId) { return 0.0; }, false);
  }

  /// The same pass, visiting the highest `priority(node)` first and equal
  /// priorities in ready order. A kernel's priority is read once, when it
  /// is filed. An index must be driven by one of the two overloads only.
  template <typename Admits, typename Decide, typename Priority>
  void pass(sim::SchedulerContext& ctx, Admits&& admits, Decide&& decide,
            Priority&& priority) {
    walk(ctx, admits, decide, priority, true);
  }

 private:
  static constexpr std::uint64_t kNotFiled = static_cast<std::uint64_t>(-1);

  struct Entry {
    double priority;    ///< served highest first; 0 in FIFO order
    std::uint64_t seq;  ///< filing order == ready order
    dag::NodeId node;
  };

  template <typename Admits, typename Decide, typename Priority>
  void walk(sim::SchedulerContext& ctx, Admits&& admits, Decide&& decide,
            Priority&& priority, bool ranked) {
    // Saturation fast path: every commit needs an idle processor, so with
    // none the pass is a no-op. Filing waits for the next pass that can act.
    if (ctx.idle_processors().empty()) return;
    APT_ASSERT(buckets_.size() == ctx.system().proc_count(),
               "index sized for %zu processors, system has %zu: reset() "
               "was not called from prepare()",
               buckets_.size(), ctx.system().proc_count());
    for (const dag::NodeId node : ctx.ready_from(filed_)) {
      const Entry entry{static_cast<double>(priority(node)), open(node), node};
      for (sim::ProcId p = 0; p < buckets_.size(); ++p)
        if (admits(node, p)) push(p, entry, ranked);
      ++filed_;
    }

    while (const Entry* next = earliest(ctx.idle_processors(), ranked)) {
      const Entry visit = *next;
      if (decide(visit.node)) {
        close(visit.node);
      } else {
        set_aside(visit.seq, ctx.idle_processors(), ranked);
      }
    }
    refile_set_aside(ranked);
  }

  /// Gives `node` the next sequence number and marks it filed.
  std::uint64_t open(dag::NodeId node);
  /// `node` was committed: its entries in every bucket become dead.
  void close(dag::NodeId node);
  /// The first live entry of an idle processor's bucket in serving order;
  /// nullptr when no processor is idle or their buckets are empty.
  const Entry* earliest(const std::vector<sim::ProcId>& idle, bool ranked);
  /// Takes the entry `seq` off the front of every idle bucket it heads (a
  /// rejected visit), to be filed again by refile_set_aside().
  void set_aside(std::uint64_t seq, const std::vector<sim::ProcId>& idle,
                 bool ranked);
  /// Files the entries set aside during this pass back where they were.
  void refile_set_aside(bool ranked);
  /// The front of the bucket after dropping its dead entries for good.
  const Entry* head(sim::ProcId proc, bool ranked);
  void push(sim::ProcId proc, const Entry& entry, bool ranked);
  void pop(sim::ProcId proc, bool ranked);
  bool live(const Entry& e) const { return live_seq_[e.node] == e.seq; }

  /// One bucket per processor, its front the next entry to serve: a FIFO
  /// deque in `buckets_`, or a binary heap in `heaps_` when ranked.
  /// Committed kernels stay as dead entries until they reach the front;
  /// `live_seq_` tells them apart, also after a stream engine reuses the
  /// node id for a later kernel.
  std::vector<std::deque<Entry>> buckets_;
  std::vector<std::vector<Entry>> heaps_;
  std::vector<std::uint64_t> live_seq_;  ///< [node] live entries' seq
  /// Entries a pass took off the front of a bucket for a rejected visit,
  /// in the order it took them.
  std::vector<std::pair<sim::ProcId, Entry>> set_aside_;
  std::size_t filed_ = 0;  ///< filed kernels still ready
  std::uint64_t next_seq_ = 0;
};

}  // namespace apt::policies
