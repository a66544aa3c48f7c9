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
template <typename Entry>
bool served_after(const Entry& a, const Entry& b) {
  return served_before(b, a);
}

}  // namespace

void ReadyIndex::reset(std::size_t proc_count) {
  buckets_.assign(proc_count, {});
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
  std::deque<Entry>& bucket = buckets_[proc];
  bucket.push_back(entry);
  if (ranked)
    std::push_heap(bucket.begin(), bucket.end(), served_after<Entry>);
}

void ReadyIndex::pop(sim::ProcId proc, bool ranked) {
  std::deque<Entry>& bucket = buckets_[proc];
  if (ranked) {
    std::pop_heap(bucket.begin(), bucket.end(), served_after<Entry>);
    bucket.pop_back();
  } else {
    bucket.pop_front();
  }
}

const ReadyIndex::Entry* ReadyIndex::head(sim::ProcId proc, bool ranked) {
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
