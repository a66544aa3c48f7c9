// The engines' ready set I: ready, not-yet-committed kernels in arrival
// (FIFO) order — exactly what SchedulerContext::ready() exposes.
//
// Removal is in place. Every member carries a ready sequence number that
// ascends along the list, so erase() finds any member by binary search and
// shifts the entries behind it down one slot, so the survivors keep their
// FIFO order and the list is always compact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "dag/graph.hpp"
#include "util/contracts.hpp"

namespace apt::sim {

class ReadySet {
 public:
  /// Makes node ids [0, node_count) insertable. Grows only.
  void resize(std::size_t node_count) {
    seq_.resize(std::max(seq_.size(), node_count), 0);
  }

  /// Appends `node` at the back.
  void push_back(dag::NodeId node) {
    seq_[node] = next_seq_++;
    nodes_.push_back(node);
  }

  /// Removes the member `node`: a binary search plus the shift of every
  /// entry behind it.
  void erase(dag::NodeId node) {
    const auto it = std::lower_bound(
        nodes_.begin(), nodes_.end(), seq_[node],
        [this](dag::NodeId n, std::uint64_t seq) { return seq_[n] < seq; });
    APT_ASSERT(it != nodes_.end() && *it == node,
               "node %u is not in the ready set", node);
    nodes_.erase(it);
  }

  const std::vector<dag::NodeId>& nodes() const noexcept { return nodes_; }
  std::size_t size() const noexcept { return nodes_.size(); }

 private:
  std::vector<dag::NodeId> nodes_;  ///< FIFO order
  std::vector<std::uint64_t> seq_;  ///< [node] ready sequence number
  std::uint64_t next_seq_ = 0;
};

}  // namespace apt::sim
