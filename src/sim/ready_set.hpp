// The engines' ready set I: ready, not-yet-committed kernels in arrival
// (FIFO) order — what SchedulerContext::ready() exposes.
//
// The members live in a log in push order, and each member's node records
// the log index of its entry (pos_), so erase() finds a member in O(1). An
// entry is live while its index is still its node's recorded one. That test
// is per entry: a stream engine pushes a recycled slot id again while the
// slot's dead entry may still be in the log, and the new entry's index is
// not the old one's.
//
// Removal has two modes, and a set starts in the first:
//   * Tombstone. erase() marks the entry dead; a dead or erased entry at
//     the back is dropped outright. The owner calls compact() between
//     policy passes once compaction_due(), so the squeeze is amortized
//     over the commits that left the dead entries; it rewrites the index
//     of every entry it moves. tail() reads the back of the log without
//     compacting: under the ready() contract, the entries a policy has not
//     seen yet are all live.
//   * In place. The first nodes() read compacts and switches the set to
//     this mode for good: erase() shifts the entries behind the member
//     down one slot, so nodes() is always exactly the live set. A shift
//     would stale every recorded index behind it, so from the switch on
//     pos_ holds ascending push numbers instead, and erase() finds a member
//     by binary search over them. A policy that reads the whole set keeps
//     paying that shift, and never a compaction per read.
// Both modes count the entries they move (entries_moved()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dag/graph.hpp"
#include "sim/policy.hpp"
#include "util/contracts.hpp"
#include "util/pod_array.hpp"

namespace apt::sim {

class ReadySet {
 public:
  /// Makes node ids [0, node_count) insertable. Grows only.
  void resize(std::size_t node_count) { pos_.resize(node_count, kDead); }

  /// Appends `node` at the back.
  void push_back(dag::NodeId node) {
    pos_[node] = in_place_ ? next_seq_++ : nodes_.size();
    nodes_.push_back(node);
  }

  /// Removes the member `node`.
  void erase(dag::NodeId node) {
    if (in_place_) {
      const auto it = std::lower_bound(
          nodes_.begin(), nodes_.end(), pos_[node],
          [this](dag::NodeId n, std::uint64_t seq) { return pos_[n] < seq; });
      APT_ASSERT(it != nodes_.end() && *it == node,
                 "node %u is not in the ready set", node);
      moved_ += static_cast<std::uint64_t>(nodes_.end() - it - 1);
      nodes_.erase(it);
      return;
    }
    const std::uint64_t i = pos_[node];
    APT_ASSERT(i < nodes_.size() && nodes_[i] == node,
               "node %u is not in the ready set", node);
    pos_[node] = kDead;
    if (i + 1 != nodes_.size()) {
      ++dead_;
      return;
    }
    nodes_.pop_back();
    while (!nodes_.empty() && !live(nodes_.size() - 1)) {
      nodes_.pop_back();
      --dead_;
    }
  }

  /// The live members in FIFO order. The first call compacts and switches
  /// the set to in-place removal for good.
  const std::vector<dag::NodeId>& nodes() {
    if (!in_place_) {
      compact();  // leaves pos_[nodes_[i]] == i: ascending, as push numbers
      in_place_ = true;
      next_seq_ = nodes_.size();
    }
    return nodes_;
  }

  /// The live members at FIFO positions [first, size()), read from the
  /// back of the log without compacting. Valid only while every dead entry
  /// precedes them, as it does for the members pushed since the reader's
  /// last commit.
  ReadyRange tail(std::size_t first) const {
    APT_ASSERT(first <= size(), "tail from %zu of %zu ready kernels", first,
               size());
    const std::size_t begin = nodes_.size() - (size() - first);
    for (std::size_t i = begin; !in_place_ && i < nodes_.size(); ++i)
      APT_ASSERT(live(i), "log entry %zu is dead but read as new", i);
    return {nodes_.data() + begin, nodes_.data() + nodes_.size()};
  }

  /// Whether dead entries outnumber live ones, so compact() is due.
  bool compaction_due() const noexcept { return dead_ > size(); }

  /// Drops the dead entries, keeping the live ones in order.
  void compact() {
    if (dead_ == 0) return;
    std::size_t out = 0;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!live(i)) continue;
      if (out != i) {
        nodes_[out] = nodes_[i];
        pos_[nodes_[out]] = out;
        ++moved_;
      }
      ++out;
    }
    nodes_.resize(out);
    dead_ = 0;
    ++compactions_;
  }

  std::size_t size() const noexcept { return nodes_.size() - dead_; }

  std::uint64_t compactions() const noexcept { return compactions_; }
  /// Entries written to a new position by compactions and in-place shifts.
  std::uint64_t entries_moved() const noexcept { return moved_; }

 private:
  static constexpr std::uint64_t kDead =
      std::numeric_limits<std::uint64_t>::max();

  /// Tombstone mode only.
  bool live(std::size_t i) const { return pos_[nodes_[i]] == i; }

  std::vector<dag::NodeId> nodes_;  ///< the log, FIFO order
  /// [node] tombstone mode: its live entry's log index, kDead if none. In
  /// place: its push number, ascending along the log. Grown in place, like
  /// the engine's other slot-indexed arrays.
  util::PodArray<std::uint64_t> pos_;
  std::uint64_t next_seq_ = 0;  ///< in place: the next push number
  std::size_t dead_ = 0;        ///< dead entries in the log
  bool in_place_ = false;
  std::uint64_t compactions_ = 0;
  std::uint64_t moved_ = 0;
};

}  // namespace apt::sim
