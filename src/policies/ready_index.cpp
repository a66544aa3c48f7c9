#include "policies/ready_index.hpp"

#include <algorithm>
#include <iterator>

namespace apt::policies {

void ReadyIndex::reset(std::size_t proc_count) {
  buckets_.assign(proc_count, {});
  live_seq_.clear();
  cursor_.clear();
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

const ReadyIndex::Entry* ReadyIndex::earliest(
    const std::vector<sim::ProcId>& idle) {
  const Entry* best = nullptr;
  for (const sim::ProcId p : idle) {
    const Entry* const h = head(p);
    if (h && (!best || h->seq < best->seq)) best = h;
  }
  return best;
}

void ReadyIndex::step_past(std::uint64_t seq,
                           const std::vector<sim::ProcId>& idle) {
  for (const sim::ProcId p : idle) {
    const Entry* const h = head(p);
    if (h && h->seq == seq) ++cursor_[p];
  }
}

const ReadyIndex::Entry* ReadyIndex::head(sim::ProcId proc) {
  std::deque<Entry>& bucket = buckets_[proc];
  std::size_t& at = cursor_[proc];
  while (at < bucket.size() && !live(bucket[at])) {
    if (at == 0) {
      bucket.pop_front();
    } else {
      ++at;
    }
  }
  return at < bucket.size() ? &bucket[at] : nullptr;
}

void ReadyIndex::prune_walked(sim::ProcId proc) {
  std::deque<Entry>& bucket = buckets_[proc];
  const auto walked = std::next(
      bucket.begin(), static_cast<std::ptrdiff_t>(cursor_[proc]));
  bucket.erase(std::remove_if(bucket.begin(), walked,
                              [this](const Entry& e) { return !live(e); }),
               walked);
}

}  // namespace apt::policies
