// The scheduling-policy interface and the system view policies schedule
// against.
//
// The engine is event driven: whenever the system state changes (start of
// simulation, a kernel completes), it calls Policy::on_event with a
// SchedulerContext. Dynamic policies inspect the ready set I and the
// available processors A (thesis §2.5.3) and commit assignments; static
// policies precompute a plan in prepare() and release it step by step.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/noise.hpp"
#include "sim/system.hpp"
#include "sim/transfer_estimate.hpp"

namespace apt::sim {

/// When input data starts moving toward the chosen processor.
enum class TransferSemantics {
  /// Data moves only after the assignment decision (dynamic policies: the
  /// destination is unknown earlier, so the kernel stalls for the transfer).
  AtAssignment,
  /// Data was already in flight since each predecessor finished (static
  /// policies: destinations are known up front — classic HEFT semantics).
  Prefetched,
};

/// View of the running simulation offered to a policy, plus the two actions
/// a policy can take (assign to an idle processor / enqueue behind a busy
/// one). Implemented by the engine.
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;

  virtual TimeMs now() const = 0;
  virtual const dag::Dag& dag() const = 0;
  virtual const System& system() const = 0;
  virtual const CostModel& cost_model() const = 0;

  /// Ready, not-yet-assigned kernels in arrival (FIFO) order: the set I.
  ///
  /// Contract, which the FIFO policies' incremental index relies on
  /// (policies::ReadyIndex): between two reads, a kernel leaves the set
  /// only through this context's assign() or enqueue(), and kernels that
  /// became ready are appended at the back. Removal keeps the survivors'
  /// order. So a policy that counts its own commits knows that everything
  /// past the survivors it has already seen is new.
  virtual const std::vector<dag::NodeId>& ready() const = 0;

  /// True when the processor is neither executing nor holding queued work:
  /// membership in the available set A.
  virtual bool is_idle(ProcId proc) const = 0;

  /// The available set A, ascending by processor id. The reference stays
  /// valid until the next assign()/enqueue() or the next call to
  /// idle_processors(), whichever comes first — snapshot (copy) it if you
  /// need it across an assignment.
  virtual const std::vector<ProcId>& idle_processors() const = 0;

  /// Time at which the processor finishes everything currently committed to
  /// it (== now() when idle).
  virtual TimeMs busy_until(ProcId proc) const = 0;

  /// Kernels waiting in the processor's FIFO queue (excludes the running one).
  virtual std::size_t queue_length(ProcId proc) const = 0;

  /// Remaining work committed to the processor: remaining time of the
  /// running kernel plus execution times of everything queued — AG's
  /// queueing-delay estimate.
  virtual TimeMs queued_work_ms(ProcId proc) const = 0;

  /// Mean execution time of the most recent `k` kernels completed on the
  /// processor (Eq. 2's τ_g^k); 0 when the processor has no history.
  virtual TimeMs recent_avg_exec_ms(ProcId proc, std::size_t k) const = 0;

  /// Execution time of a ready kernel on a processor (lookup-table query).
  /// Always the NOMINAL cost-model time: under service-time noise
  /// (sim::NoiseSpec) the realized duration may deviate, but policies plan
  /// against the estimate — exactly the information asymmetry a production
  /// scheduler faces, and what straggler hedging compensates for.
  virtual TimeMs exec_time_ms(dag::NodeId node, ProcId proc) const = 0;

  /// Minimum execution time of `node` over every processor, and the lowest
  /// processor id attaining it. The default implementations scan
  /// exec_time_ms over all processors; engines override them with O(1)
  /// precomputed lookups — the scan is the hottest loop of the MET-family
  /// policies, which call these for every ready kernel at every event.
  virtual TimeMs min_exec_time_ms(dag::NodeId node) const {
    TimeMs best = std::numeric_limits<TimeMs>::infinity();
    for (ProcId p = 0; p < system().proc_count(); ++p)
      best = std::min(best, exec_time_ms(node, p));
    return best;
  }
  virtual ProcId min_exec_proc(dag::NodeId node) const {
    ProcId best = 0;
    for (ProcId p = 1; p < system().proc_count(); ++p) {
      if (exec_time_ms(node, p) < exec_time_ms(node, best)) best = p;
    }
    return best;
  }

  /// Structured input-transfer estimate if `node` were assigned to `proc`
  /// now (see sim/transfer_estimate.hpp). stall_ms is the worst-case
  /// unloaded stall — max over predecessors of the edge transfer time from
  /// the predecessor's actual processor, exactly the value the legacy
  /// scalar contract returned. Under a contended topology the engines
  /// additionally fill link_queueing_ms / bottleneck_link from the live
  /// TransferManager backlog (predicted drain of each route link's
  /// in-flight bytes at current max-min rates), and the run's NoiseSpec
  /// feeds quantile_ms. On an ideal topology only stall_ms is non-trivial.
  virtual TransferEstimate transfer_estimate(dag::NodeId node,
                                             ProcId proc) const = 0;

  /// DEPRECATED scalar form of the estimation contract, kept as a thin
  /// wrapper for source compatibility: exactly
  /// transfer_estimate(node, proc).stall_ms. New code (and all in-tree
  /// policies) should call transfer_estimate() and pick the reading it
  /// wants — stall_ms (comm-blind), total_ms() (backlog-aware), or
  /// quantile_ms(q) (tail-aware).
  virtual TimeMs input_transfer_ms(dag::NodeId node, ProcId proc) const {
    return transfer_estimate(node, proc).stall_ms;
  }

  /// The run's service-time noise spec (a disabled spec when the run is
  /// noise-free). Quantile-planning policies combine it with
  /// noise_quantile_multiplier to price tail risk; it is the same spec
  /// transfer_estimate() embeds.
  virtual const NoiseSpec& noise() const {
    static const NoiseSpec kDisabled;
    return kDisabled;
  }

  /// Commits `node` to the *idle* processor `proc`, starting immediately.
  /// Throws std::logic_error if the processor is not idle or the node is
  /// not ready. `alternative` tags APT's second-best choices for Tables
  /// 15/16 style accounting.
  virtual void assign(dag::NodeId node, ProcId proc,
                      bool alternative = false) = 0;

  /// Appends `node` to the processor's FIFO queue (AG-style); it starts as
  /// soon as the processor drains earlier work. May also target an idle
  /// processor, which is equivalent to assign() with prefetched transfer.
  virtual void enqueue(dag::NodeId node, ProcId proc,
                       bool alternative = false) = 0;
};

/// A scheduling policy.
class Policy {
 public:
  virtual ~Policy() = default;

  virtual std::string name() const = 0;

  /// Dynamic policies see only the ready set; static policies precompute a
  /// full schedule from the whole DAG in prepare().
  virtual bool is_dynamic() const = 0;

  virtual TransferSemantics transfer_semantics() const {
    return is_dynamic() ? TransferSemantics::AtAssignment
                        : TransferSemantics::Prefetched;
  }

  /// Called once before the run with the full problem instance. Static
  /// policies build their plan here; dynamic policies typically reset state.
  virtual void prepare(const dag::Dag& dag, const System& system,
                       const CostModel& cost_model) {
    (void)dag;
    (void)system;
    (void)cost_model;
  }

  /// Called at time 0 and after every completion; make assignments here.
  virtual void on_event(SchedulerContext& ctx) = 0;
};

}  // namespace apt::sim
