#include "sim/validate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/intervals.hpp"

namespace apt::sim {

namespace {
constexpr double kTol = 1e-9;

bool close(double a, double b) { return std::abs(a - b) <= kTol * std::max({1.0, std::abs(a), std::abs(b)}); }

/// Per-link transfer aggregation for the capacity check: under fair
/// sharing a link is work-conserving, so the bytes it delivers can never
/// exceed bandwidth × (time it spent with >= 1 draining message). The
/// check pools every transfer's drain interval [drain_start, finish],
/// merges the union, and compares total bytes against capacity over it —
/// an invariant that holds for any schedule the transfer manager can
/// produce and fails for any over-capacity one.
struct LinkLoad {
  double bytes = 0.0;
  std::vector<Interval> drains;
};

/// Checks one run's transfer records against its schedule (times already
/// absolute); `tag` prefixes messages.
void check_transfers(const SimResult& result, const System& system,
                     const std::string& tag, std::vector<LinkLoad>& loads,
                     std::vector<Violation>& out) {
  const net::Topology& topology = system.topology();
  auto fail = [&](std::string msg) {
    out.push_back(Violation{std::move(msg)});
  };
  for (std::size_t i = 0; i < result.transfers.size(); ++i) {
    const TransferRecord& t = result.transfers[i];
    const std::string ttag = tag + "transfer " + std::to_string(i);
    if (t.path.empty()) {
      fail(ttag + ": empty route (local pairs move no message)");
      continue;
    }
    bool links_ok = true;
    TimeMs route_latency = 0.0;
    double bottleneck_gbps = std::numeric_limits<double>::infinity();
    for (const net::LinkId link : t.path) {
      if (link == net::kNoLink || link >= topology.link_count()) {
        fail(ttag + ": invalid link id");
        links_ok = false;
        break;
      }
      route_latency += topology.latency_ms(link);
      bottleneck_gbps = std::min(bottleneck_gbps,
                                 topology.bandwidth_gbps(link));
    }
    if (!links_ok) continue;
    if (t.bytes < 0.0) fail(ttag + ": negative byte count");
    if (t.drain_start + kTol < t.start || t.finish + kTol < t.drain_start)
      fail(ttag + ": start/drain/finish out of order");
    if (!close(t.drain_start, t.start + route_latency))
      fail(ttag + ": drain_start != start + route head latency");
    // No transfer can beat its whole uncontended route to itself: head
    // latency summed over the hops, bytes at the bottleneck link's rate.
    const TimeMs min_duration =
        route_latency + t.bytes / (bottleneck_gbps * 1e6);
    if (t.finish - t.start + kTol * std::max(1.0, min_duration) <
        min_duration)
      fail(ttag + ": faster than the uncontended route");
    const TimeMs consumer_start =
        t.dst < result.schedule.size()
            ? result.schedule[t.dst].exec_start
            : std::numeric_limits<TimeMs>::lowest();
    if (consumer_start + kTol < t.finish)
      fail(ttag + ": consumer kernel " + std::to_string(t.dst) +
           " starts before the message is delivered");
    // The message occupies every link of its route for its whole drain, so
    // its bytes and busy interval count against each hop's capacity.
    for (const net::LinkId link : t.path) {
      LinkLoad& load = loads[link];
      load.bytes += t.bytes;
      load.drains.emplace_back(t.drain_start, t.finish);
    }
  }
}

/// Checks one run's hedge records against its schedule: at most one
/// episode per kernel, valid distinct processors, the schedule entry is
/// the winning attempt, and the losing attempt was cancelled exactly at
/// the winner's finish. The loser's occupation span is handed to
/// `add_loser_span(proc, from, to, node)` so the caller can pool it into
/// its processor-exclusivity check — a cancelled attempt occupied real
/// processor time and must not overlap anything else.
template <typename AddLoserSpan>
void check_hedges(const SimResult& result, const System& system,
                  const std::string& tag, const AddLoserSpan& add_loser_span,
                  std::vector<Violation>& out) {
  auto fail = [&](std::string msg) {
    out.push_back(Violation{std::move(msg)});
  };
  std::vector<bool> hedged(result.schedule.size(), false);
  for (std::size_t i = 0; i < result.hedges.size(); ++i) {
    const HedgeRecord& h = result.hedges[i];
    const std::string htag = tag + "hedge " + std::to_string(i);
    if (h.node >= result.schedule.size()) {
      fail(htag + ": invalid kernel id");
      continue;
    }
    if (hedged[h.node])
      fail(htag + ": kernel " + std::to_string(h.node) +
           " hedged more than once");
    hedged[h.node] = true;
    if (h.primary_proc == kInvalidProc ||
        h.primary_proc >= system.proc_count() ||
        h.replica_proc == kInvalidProc ||
        h.replica_proc >= system.proc_count()) {
      fail(htag + ": invalid processor");
      continue;
    }
    if (h.primary_proc == h.replica_proc)
      fail(htag + ": replica raced on the primary's own processor");
    const ScheduledKernel& k = result.schedule[h.node];
    const ProcId winner_proc = h.replica_won ? h.replica_proc
                                             : h.primary_proc;
    if (k.proc != winner_proc)
      fail(htag + ": schedule entry does not describe the winning attempt");
    if (!close(h.winner_finish_ms, k.finish_time))
      fail(htag + ": winner finish != the kernel's scheduled finish");
    if (!close(h.cancelled_ms, h.winner_finish_ms))
      fail(htag + ": loser not cancelled at the winner's finish (exactly "
                  "one attempt may win)");
    if (h.cancelled_ms + kTol < h.loser_start_ms)
      fail(htag + ": negative wasted time (cancelled before the loser "
                  "started)");
    if (h.winner_finish_ms + kTol < h.launched_ms)
      fail(htag + ": replica launched after the race resolved");
    add_loser_span(h.replica_won ? h.primary_proc : h.replica_proc,
                   h.loser_start_ms, h.cancelled_ms, h.node);
  }
}

void check_link_capacity(const System& system, std::vector<LinkLoad>& loads,
                         std::vector<Violation>& out) {
  const net::Topology& topology = system.topology();
  for (net::LinkId l = 0; l < loads.size(); ++l) {
    LinkLoad& load = loads[l];
    if (load.drains.empty()) continue;
    const TimeMs busy = merge_union(load.drains);
    const double capacity = topology.bandwidth_gbps(l) * 1e6 * busy;
    if (load.bytes > capacity + kTol * std::max(1.0, capacity))
      out.push_back(Violation{
          "link " + topology.link_name(l) + ": delivered " +
          std::to_string(load.bytes) + " bytes in " + std::to_string(busy) +
          " busy ms — exceeds capacity " + std::to_string(capacity)});
  }
}

/// The checks both validators share, fed one application at a time:
/// each application's per-kernel timeline, readiness, precedence, noise
/// multiplier, transfer and hedge records; then processor exclusivity and
/// link capacity, pooled across every application added (kernels and
/// messages of different applications share the platform).
class ScheduleChecker {
 public:
  explicit ScheduleChecker(const System& system)
      : system_(system),
        by_proc_(system.proc_count()),
        loads_(system.topology().link_count()) {}

  void fail(std::string msg) { out_.push_back(Violation{std::move(msg)}); }

  /// Checks one application that arrived at `arrival_ms` (times absolute,
  /// nodes local to `dag`); `tag` prefixes its messages. Returns false,
  /// having checked nothing else, when the schedule does not cover the DAG.
  bool add_app(const dag::Dag& dag, TimeMs arrival_ms,
               const SimResult& result, const std::string& tag) {
    if (result.schedule.size() != dag.node_count()) {
      fail(tag + "schedule size " + std::to_string(result.schedule.size()) +
           " != node count " + std::to_string(dag.node_count()));
      return false;
    }
    const std::size_t app = tags_.size();
    tags_.push_back(tag);
    for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
      const ScheduledKernel& k = result.schedule[n];
      const std::string ntag = tag + "node " + std::to_string(n);
      if (k.node != n) fail(ntag + ": record/node index mismatch");
      if (k.proc == kInvalidProc || k.proc >= system_.proc_count()) {
        fail(ntag + ": invalid processor");
        continue;
      }
      if (k.ready_time + kTol < arrival_ms + dag.node(n).release_ms)
        fail(ntag + ": ready before its arrival/release instant");
      if (k.ready_time < 0.0 || k.assign_time + kTol < k.ready_time)
        fail(ntag + ": assigned before ready");
      if (k.exec_start + kTol < k.assign_time)
        fail(ntag + ": execution before assignment");
      if (!close(k.finish_time, k.exec_start + k.exec_ms))
        fail(ntag + ": finish != exec_start + exec_ms");
      if (!(k.noise_mult > 0.0))
        fail(ntag + ": non-positive noise multiplier");
      for (const dag::NodeId pred : dag.predecessors(n)) {
        const ScheduledKernel& pk = result.schedule[pred];
        if (k.exec_start + kTol < pk.finish_time)
          fail(ntag + ": starts before predecessor " + std::to_string(pred) +
               " finishes");
        if (k.ready_time + kTol < pk.finish_time)
          fail(ntag + ": marked ready before predecessor " +
               std::to_string(pred) + " finished");
      }
      by_proc_[k.proc].push_back(Span{app, n, k.occupied_from(),
                                      k.finish_time});
    }
    check_transfers(result, system_, tag, loads_, out_);
    // The losing attempts of hedged kernels held their processor until
    // the cancellation instant, so their spans join the exclusivity pool.
    check_hedges(result, system_, tag,
                 [&](ProcId proc, TimeMs from, TimeMs to, dag::NodeId node) {
                   by_proc_[proc].push_back(Span{app, node, from, to});
                 },
                 out_);
    return true;
  }

  /// The pooled checks; returns every violation found.
  std::vector<Violation> finish() {
    check_link_capacity(system_, loads_, out_);
    // Processor exclusivity: the occupation intervals [occupied_from,
    // finish) of kernels sharing a processor never overlap, whichever
    // application they belong to.
    for (ProcId p = 0; p < system_.proc_count(); ++p) {
      std::vector<Span>& spans = by_proc_[p];
      std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        if (a.from != b.from) return a.from < b.from;
        if (a.app != b.app) return a.app < b.app;
        return a.node < b.node;
      });
      for (std::size_t i = 1; i < spans.size(); ++i) {
        const Span& prev = spans[i - 1];
        if (spans[i].from + kTol < prev.to)
          fail("processor " + system_.processor(p).name + ": " +
               tags_[prev.app] + "kernel " + std::to_string(prev.node) +
               " overlaps " + tags_[spans[i].app] + "kernel " +
               std::to_string(spans[i].node));
      }
    }
    return std::move(out_);
  }

 private:
  /// Occupation interval of one kernel, remembered across applications.
  struct Span {
    std::size_t app;
    dag::NodeId node;
    TimeMs from;
    TimeMs to;
  };

  const System& system_;
  std::vector<std::string> tags_;  ///< [app] message prefix
  std::vector<std::vector<Span>> by_proc_;
  std::vector<LinkLoad> loads_;
  std::vector<Violation> out_;
};
}  // namespace

std::vector<Violation> validate_schedule(const dag::Dag& dag,
                                         const System& system,
                                         const CostModel& cost,
                                         const SimResult& result) {
  ScheduleChecker checker(system);
  if (!checker.add_app(dag, 0.0, result, "")) return checker.finish();
  std::vector<Violation> out = checker.finish();
  auto fail = [&](std::string msg) { out.push_back(Violation{std::move(msg)}); };

  // The two checks that need the cost model and the makespan.
  TimeMs latest = 0.0;
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
    const ScheduledKernel& k = result.schedule[n];
    if (k.proc == kInvalidProc || k.proc >= system.proc_count()) continue;
    // Under service-time noise the realized duration is the cost model's
    // nominal time scaled by the recorded multiplier; with noise off the
    // multiplier is exactly 1.0 and this is the plain cost-model check.
    const TimeMs expected_exec =
        cost.exec_time_ms(dag, n, system.processor(k.proc)) * k.noise_mult;
    if (!close(k.exec_ms, expected_exec))
      fail("node " + std::to_string(n) + ": exec_ms " +
           std::to_string(k.exec_ms) + " != cost model × noise_mult " +
           std::to_string(expected_exec));
    latest = std::max(latest, k.finish_time);
  }
  if (!dag.empty() && !close(result.makespan, latest))
    fail("makespan " + std::to_string(result.makespan) +
         " != latest finish " + std::to_string(latest));
  return out;
}

std::vector<Violation> validate_stream_schedule(
    const System& system, const std::vector<StreamAppView>& apps) {
  ScheduleChecker checker(system);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const StreamAppView& view = apps[a];
    const std::string tag = "app " + std::to_string(a) + " ";
    if (view.dag == nullptr || view.result == nullptr) {
      checker.fail(tag + "null dag/result");
      continue;
    }
    checker.add_app(*view.dag, view.arrival_ms, *view.result, tag);
  }
  return checker.finish();
}

namespace {

/// Each node's best-case execution time over every processor.
std::vector<TimeMs> best_exec_times_ms(const dag::Dag& dag,
                                       const System& system,
                                       const CostModel& cost) {
  std::vector<TimeMs> best(dag.node_count(), 0.0);
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) {
    TimeMs b = std::numeric_limits<TimeMs>::infinity();
    for (const Processor& p : system.processors())
      b = std::min(b, cost.exec_time_ms(dag, n, p));
    best[n] = b;
  }
  return best;
}

/// Longest path through the DAG weighted by `best_ms`, transfers free.
/// Each node takes the max over its predecessors plus one add, so any
/// topological order gives the same bits; this one walks Kahn's FIFO
/// queue, which needs no heap.
TimeMs longest_best_path_ms(const dag::Dag& dag, const TimeMs* best_ms,
                            LowerBoundScratch& scratch) {
  const std::size_t n = dag.node_count();
  std::vector<TimeMs>& longest = scratch.longest;
  std::vector<std::size_t>& preds_left = scratch.preds_left;
  std::vector<dag::NodeId>& queue = scratch.queue;
  longest.assign(n, 0.0);
  preds_left.resize(n);
  queue.clear();
  queue.reserve(n);
  for (dag::NodeId v = 0; v < n; ++v) {
    preds_left[v] = dag.in_degree(v);
    if (preds_left[v] == 0) queue.push_back(v);
  }
  TimeMs bound = 0.0;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const dag::NodeId v = queue[head];
    longest[v] += best_ms[v];
    bound = std::max(bound, longest[v]);
    for (const dag::NodeId s : dag.successors(v)) {
      longest[s] = std::max(longest[s], longest[v]);
      if (--preds_left[s] == 0) queue.push_back(s);
    }
  }
  return bound;
}

}  // namespace

TimeMs critical_path_lower_bound_ms(const dag::Dag& dag, const System& system,
                                    const CostModel& cost) {
  if (dag.empty()) return 0.0;
  LowerBoundScratch scratch;
  return longest_best_path_ms(
      dag, best_exec_times_ms(dag, system, cost).data(), scratch);
}

TimeMs makespan_lower_bound_ms(const dag::Dag& dag, const System& system,
                               const TimeMs* best_ms,
                               LowerBoundScratch& scratch) {
  if (dag.empty() || system.proc_count() == 0) return 0.0;
  TimeMs total_best = 0.0;
  for (dag::NodeId n = 0; n < dag.node_count(); ++n) total_best += best_ms[n];
  const TimeMs area = total_best / static_cast<double>(system.proc_count());
  return std::max(area, longest_best_path_ms(dag, best_ms, scratch));
}

TimeMs makespan_lower_bound_ms(const dag::Dag& dag, const System& system,
                               const CostModel& cost) {
  if (dag.empty() || system.proc_count() == 0) return 0.0;
  LowerBoundScratch scratch;
  return makespan_lower_bound_ms(
      dag, system, best_exec_times_ms(dag, system, cost).data(), scratch);
}

}  // namespace apt::sim
