#include "policies/ready_index.hpp"

#include <algorithm>

namespace apt::policies {
namespace {

template <typename Entry>
bool served_before(const Entry& a, const Entry& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  return a.seq < b.seq;
}

/// Heap order: std::push_heap/pop_heap keep the entry served first in front.
/// A function object, so the heap operations inline the comparison.
struct ServedAfter {
  template <typename Entry>
  bool operator()(const Entry& a, const Entry& b) const {
    return served_before(b, a);
  }
};

}  // namespace

void ReadyIndex::reset(std::size_t proc_count) {
  buckets_.assign(proc_count, {});
  heaps_.assign(proc_count, {});
  live_seq_.clear();
  set_aside_.clear();
  filed_ = 0;
  next_seq_ = 0;
}

std::uint64_t ReadyIndex::open(dag::NodeId node) {
  if (node >= live_seq_.size()) live_seq_.resize(node + 1, kNotFiled);
  live_seq_[node] = next_seq_;
  return next_seq_++;
}

void ReadyIndex::close(dag::NodeId node) {
  live_seq_[node] = kNotFiled;
  --filed_;
}

void ReadyIndex::push(sim::ProcId proc, const Entry& entry, bool ranked) {
  if (ranked) {
    std::vector<Entry>& heap = heaps_[proc];
    heap.push_back(entry);
    std::push_heap(heap.begin(), heap.end(), ServedAfter{});
  } else {
    buckets_[proc].push_back(entry);
  }
}

void ReadyIndex::pop(sim::ProcId proc, bool ranked) {
  if (ranked) {
    std::vector<Entry>& heap = heaps_[proc];
    std::pop_heap(heap.begin(), heap.end(), ServedAfter{});
    heap.pop_back();
  } else {
    buckets_[proc].pop_front();
  }
}

const ReadyIndex::Entry* ReadyIndex::head(sim::ProcId proc, bool ranked) {
  if (ranked) {
    const std::vector<Entry>& heap = heaps_[proc];
    while (!heap.empty() && !live(heap.front())) pop(proc, ranked);
    return heap.empty() ? nullptr : &heap.front();
  }
  const std::deque<Entry>& bucket = buckets_[proc];
  while (!bucket.empty() && !live(bucket.front())) pop(proc, ranked);
  return bucket.empty() ? nullptr : &bucket.front();
}

const ReadyIndex::Entry* ReadyIndex::earliest(
    const std::vector<sim::ProcId>& idle, bool ranked) {
  const Entry* best = nullptr;
  for (const sim::ProcId p : idle) {
    const Entry* const h = head(p, ranked);
    if (h && (!best || served_before(*h, *best))) best = h;
  }
  return best;
}

void ReadyIndex::set_aside(std::uint64_t seq,
                           const std::vector<sim::ProcId>& idle,
                           bool ranked) {
  // The visited entry is the earliest over the idle buckets, so it heads
  // every idle bucket it is filed in.
  for (const sim::ProcId p : idle) {
    const Entry* const h = head(p, ranked);
    if (!h || h->seq != seq) continue;
    set_aside_.emplace_back(p, *h);
    pop(p, ranked);
  }
}

void ReadyIndex::refile_set_aside(bool ranked) {
  // A FIFO bucket gets its entries back at the front, latest first, which
  // restores its order: each was ahead of everything still in the bucket.
  for (auto it = set_aside_.rbegin(); it != set_aside_.rend(); ++it) {
    if (ranked) {
      push(it->first, it->second, ranked);
    } else {
      buckets_[it->first].push_front(it->second);
    }
  }
  set_aside_.clear();
}

}  // namespace apt::policies
