// The engines' ready set I: ready, not-yet-committed kernels in arrival
// (FIFO) order — what SchedulerContext::ready() exposes.
//
// The members live in a log in push order. Every log entry carries its own
// ready sequence number, and the numbers ascend along the log, so erase()
// finds any member by binary search. An entry is live while its number is
// still its node's current one. That test is per entry: a stream engine
// pushes a recycled slot id again while the slot's dead entry may still be
// in the log.
//
// Removal has two modes, and a set starts in the first:
//   * Tombstone. erase() marks the entry dead; a dead or erased entry at
//     the back is dropped outright. The owner calls compact() between
//     policy passes once compaction_due(), so the squeeze is amortized
//     over the commits that left the dead entries. tail() reads the back
//     of the log without compacting: under the ready() contract, the
//     entries a policy has not seen yet are all live.
//   * In place. The first nodes() read compacts and switches the set to
//     this mode for good: erase() shifts the entries behind the member
//     down one slot, so nodes() is always exactly the live set. A policy
//     that reads the whole set keeps paying that shift, and never a
//     compaction per read.
// Both modes count the entries they move (entries_moved()).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "dag/graph.hpp"
#include "sim/policy.hpp"
#include "util/contracts.hpp"

namespace apt::sim {

class ReadySet {
 public:
  /// Makes node ids [0, node_count) insertable. Grows only.
  void resize(std::size_t node_count) {
    seq_.resize(std::max(seq_.size(), node_count), kDead);
  }

  /// Appends `node` at the back.
  void push_back(dag::NodeId node) {
    seq_[node] = next_seq_;
    nodes_.push_back(node);
    if (!in_place_) entry_seq_.push_back(next_seq_);
    ++next_seq_;
  }

  /// Removes the member `node`.
  void erase(dag::NodeId node) {
    if (in_place_) {
      const auto it = std::lower_bound(
          nodes_.begin(), nodes_.end(), seq_[node],
          [this](dag::NodeId n, std::uint64_t seq) { return seq_[n] < seq; });
      APT_ASSERT(it != nodes_.end() && *it == node,
                 "node %u is not in the ready set", node);
      moved_ += static_cast<std::uint64_t>(nodes_.end() - it - 1);
      nodes_.erase(it);
      return;
    }
    const auto it =
        std::lower_bound(entry_seq_.begin(), entry_seq_.end(), seq_[node]);
    APT_ASSERT(it != entry_seq_.end() && *it == seq_[node] &&
                   nodes_[static_cast<std::size_t>(it - entry_seq_.begin())] ==
                       node,
               "node %u is not in the ready set", node);
    seq_[node] = kDead;
    if (it + 1 != entry_seq_.end()) {
      ++dead_;
      return;
    }
    nodes_.pop_back();
    entry_seq_.pop_back();
    while (!nodes_.empty() && !live(nodes_.size() - 1)) {
      nodes_.pop_back();
      entry_seq_.pop_back();
      --dead_;
    }
  }

  /// The live members in FIFO order. The first call compacts and switches
  /// the set to in-place removal for good.
  const std::vector<dag::NodeId>& nodes() {
    if (!in_place_) {
      compact();
      in_place_ = true;
      entry_seq_ = {};
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
        entry_seq_[out] = entry_seq_[i];
        ++moved_;
      }
      ++out;
    }
    nodes_.resize(out);
    entry_seq_.resize(out);
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

  bool live(std::size_t i) const { return seq_[nodes_[i]] == entry_seq_[i]; }

  std::vector<dag::NodeId> nodes_;        ///< the log, FIFO order
  std::vector<std::uint64_t> entry_seq_;  ///< [entry] seq; tombstone mode
  std::vector<std::uint64_t> seq_;        ///< [node] live entry's seq
  std::uint64_t next_seq_ = 0;
  std::size_t dead_ = 0;  ///< dead entries in the log
  bool in_place_ = false;
  std::uint64_t compactions_ = 0;
  std::uint64_t moved_ = 0;
};

}  // namespace apt::sim
