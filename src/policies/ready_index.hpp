// Per-processor FIFO index over the ready set, for the FIFO policies that
// can only act through an idle processor (MET, APT and its variants).
//
// These policies visit ready kernels in arrival order and commit a kernel
// only to an idle processor its per-kernel decision accepts. Scanning the
// whole ready set on every pass with an idle processor costs O(ready) per
// event, which dominates once thousands of kernels are waiting.
//
// The index files each kernel once, when it first shows up at the back of
// ctx.ready(), under every processor the policy's filter admits. A pass
// then merges only the buckets of the currently idle processors, in ready
// order, and runs the policy's unchanged per-kernel decision on each kernel
// it meets. The result equals the full scan's, provided that:
//   * the filter admits every processor the decision could pick (a kernel
//     filed under no idle processor is one the scan would skip), and
//   * the filter depends only on facts fixed once the kernel is ready.
// The idle set only shrinks within a pass, so skipping a kernel can never
// hide an assignment the scan would have made later in the same pass. When
// the filter is a strict superset, the decision may reject a candidate;
// the walk then steps past it and the kernel stays filed.
//
// It relies on the ready-set contract of SchedulerContext::ready(): only
// this policy's own commits remove kernels, and new ones are appended at
// the back. So the first `filed_` entries of ctx.ready() are exactly the
// kernels filed earlier and still waiting, and the rest are new.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/policy.hpp"
#include "util/contracts.hpp"

namespace apt::policies {

class ReadyIndex {
 public:
  /// Forgets every filed kernel; call from Policy::prepare().
  void reset(std::size_t proc_count);

  /// One policy pass. Files the kernels appended to ctx.ready() since the
  /// last pass under each processor `admits(node, proc)` accepts. Then it
  /// visits, in ready order, every filed kernel with an admitting processor
  /// that is idle at the time, until no processor is idle. `decide(node)`
  /// runs the policy's per-kernel decision and returns true when it
  /// committed `node`.
  template <typename Admits, typename Decide>
  void pass(sim::SchedulerContext& ctx, Admits&& admits, Decide&& decide) {
    // Saturation fast path: every commit needs an idle processor, so with
    // none the pass is a no-op. Filing waits for the next pass that can act.
    if (ctx.idle_processors().empty()) return;
    APT_ASSERT(buckets_.size() == ctx.system().proc_count(),
               "index sized for %zu processors, system has %zu: reset() "
               "was not called from prepare()",
               buckets_.size(), ctx.system().proc_count());
    const std::vector<dag::NodeId>& ready = ctx.ready();
    APT_ASSERT(filed_ <= ready.size(),
               "%zu kernels filed but only %zu ready: a kernel left the "
               "ready set without this policy committing it",
               filed_, ready.size());
    for (std::size_t i = filed_; i < ready.size(); ++i) {
      const dag::NodeId node = ready[i];
      const std::uint64_t seq = open(node);
      for (sim::ProcId p = 0; p < buckets_.size(); ++p)
        if (admits(node, p)) buckets_[p].push_back(Entry{seq, node});
    }
    filed_ = ready.size();

    cursor_.assign(buckets_.size(), 0);
    while (const Entry* next = earliest(ctx.idle_processors())) {
      const Entry visit = *next;
      if (decide(visit.node)) {
        close(visit.node);
      } else {
        step_past(visit.seq, ctx.idle_processors());
      }
    }
    for (sim::ProcId p = 0; p < buckets_.size(); ++p) prune_walked(p);
  }

 private:
  static constexpr std::uint64_t kNotFiled = static_cast<std::uint64_t>(-1);

  struct Entry {
    std::uint64_t seq;  ///< filing order == ready order
    dag::NodeId node;
  };

  /// Gives `node` the next sequence number and marks it filed.
  std::uint64_t open(dag::NodeId node);
  /// `node` was committed: its entries in every bucket become dead.
  void close(dag::NodeId node);
  /// The earliest live entry heading an idle processor's bucket; nullptr
  /// when no processor is idle or their buckets are empty.
  const Entry* earliest(const std::vector<sim::ProcId>& idle);
  /// Moves every idle bucket headed by `seq` past it (a rejected visit).
  void step_past(std::uint64_t seq, const std::vector<sim::ProcId>& idle);
  /// The first live entry at or after the bucket's cursor. Dead entries at
  /// the front are dropped for good; later ones are stepped over.
  const Entry* head(sim::ProcId proc);
  /// Drops the dead entries this pass stepped over behind a rejected
  /// kernel, so no later pass steps over them again.
  void prune_walked(sim::ProcId proc);
  bool live(const Entry& e) const { return live_seq_[e.node] == e.seq; }

  /// One FIFO bucket per processor. Committed kernels stay as dead entries
  /// until they reach the front or a walk steps over them; `live_seq_`
  /// tells them apart, also after a stream engine reuses the node id for a
  /// later kernel.
  std::vector<std::deque<Entry>> buckets_;
  std::vector<std::uint64_t> live_seq_;  ///< [node] live entries' seq
  std::vector<std::size_t> cursor_;      ///< [proc] walk position, per pass
  std::size_t filed_ = 0;  ///< filed kernels still in ctx.ready()
  std::uint64_t next_seq_ = 0;
};

}  // namespace apt::policies
