// The open-system stream engine: many concurrently-arriving DAG instances
// multiplexed onto one shared platform.
//
// sim::Engine answers the thesis's closed-system question — one DAG,
// everything submitted at time zero, report the makespan. StreamEngine
// answers the open-system question the paper's "incoming stream of
// applications" framing implies: applications drawn from a DagSource
// arrive by an ArrivalProcess, contend for the same processors, and are
// judged by flow time, slowdown, throughput, utilization, and backlog
// (sim::StreamMetrics).
//
// Mechanics: the engine reuses sim::Engine's hot-path design — in-place
// ready-set removal (sim::ReadySet), a cached idle-processor list, queued
// kernels carrying their execution time — but generalizes every per-node
// array to global *slots* spanning the live instances, laid out as
// structure-of-arrays slabs (exec-time rows, min-exec tables) the
// scheduler queries read directly. Cost tables are pooled by DAG shape:
// structurally identical instances (the common case — generators emit a
// fixed family) share one PrecomputedCostModel, lower bound, and
// predecessor CSR instead of rebuilding them per arrival; the pool is
// keyed by dag::structure_hash, every hit confirmed by dag::identical.
// A retired instance (all kernels done) releases its slot range back to a
// free-range allocator and its per-app statistics are folded into bounded
// aggregates, so memory is bounded by the peak number of concurrently-live
// instances (plus the bounded shape pool), not by the length of the run.
//
// Policies: any *dynamic* sim::Policy runs unmodified — the scheduler
// context exposes ready kernels (as global ids), idle processors, and cost
// queries exactly as the closed-system engine does, and no dynamic policy
// inspects the DAG object itself. Static policies (HEFT, PEFT, ranked APT)
// plan from the whole DAG up front, which does not exist in an open
// system; run() rejects them. SchedulerContext::dag() therefore throws
// std::logic_error in stream contexts. Two further deliberate deviations
// from sim::Engine, both documented here because they bound memory:
// per-processor execution history (recent_avg_exec_ms) is capped at the
// most recent 1024 completions, and per-kernel schedules are only retained
// when StreamOptions::record_schedules is set.
//
// Determinism: identical inputs give identical results. Events sharing a
// timestamp are processed completions-first (ascending slot id), then
// transfer deliveries, then releases, then admissions — single-arrival
// streams therefore reproduce sim::Engine's schedule exactly.
//
// Communication: exactly sim::Engine's model — ideal topologies keep the
// analytic uncontended transfer stalls, contended ones (see net/) simulate
// per-edge messages with fair bandwidth sharing, with the links shared
// ACROSS application instances just like the processors. Per-app transfer
// logs are retained only under record_schedules; per-link busy/byte totals
// always land in the metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dag/graph.hpp"
#include "sim/cost_model.hpp"
#include "sim/metrics.hpp"
#include "sim/noise.hpp"
#include "sim/policy.hpp"
#include "sim/schedule.hpp"
#include "sim/system.hpp"
#include "stream/arrival.hpp"

namespace apt::obs {
class Profile;
class TraceSink;
}  // namespace apt::obs

namespace apt::stream {

/// Produces the i-th application instance of the stream (deterministic in
/// i: the engine calls it exactly once per admission, in arrival order).
using DagSource = std::function<dag::Dag(std::size_t index)>;

struct StreamOptions {
  ArrivalSpec arrivals;

  /// Admission cap: stop admitting after this many applications (0 = no
  /// cap). Work already admitted always runs to completion.
  std::size_t max_apps = 0;

  /// Admission horizon: arrivals strictly after this instant are rejected
  /// (0 = no horizon). At least one of max_apps / horizon_ms must bound a
  /// non-trace stream.
  sim::TimeMs horizon_ms = 0.0;

  /// Metrics warmup truncation (see sim::compute_stream_metrics).
  sim::TimeMs warmup_ms = 0.0;

  /// Retain every application's full schedule in the outcome (memory grows
  /// with the run — meant for tests, validation, and short CLI runs).
  bool record_schedules = false;

  /// Instability guard: the run aborts (std::runtime_error) when this many
  /// applications are live at once — an arrival rate beyond the platform's
  /// capacity would otherwise grow the backlog without bound.
  std::size_t max_live_apps = 100000;

  /// Service-time noise on realized execution times (policies keep seeing
  /// nominal costs). Instance i of the stream draws noise instance
  /// `arrival index i`, so the draws are a pure function of the spec and
  /// the arrival order — bit-identical across --jobs and engines. Disabled
  /// by default, which reproduces noise-free timelines bit-for-bit.
  sim::NoiseSpec noise;

  /// Straggler hedging (replica races on idle processors). Requires an
  /// uncontended topology — run() rejects the combination.
  sim::HedgeSpec hedging;

  /// Observability (src/obs), both null by default and provably inert:
  /// every emission site is a null-guarded read of already-committed
  /// simulation facts, so attaching either cannot change a simulated bit
  /// or consume an RNG draw. The pointees must outlive run(). The
  /// profile's post-run snapshot lands in StreamMetrics::profile.
  obs::TraceSink* sink = nullptr;
  obs::Profile* profile = nullptr;

  /// Throws std::invalid_argument when the spec is unbounded or malformed.
  void validate() const;
};

/// One retired application's full schedule (absolute simulation times,
/// nodes indexed locally as in the instance's own DAG).
struct StreamAppSchedule {
  std::size_t index = 0;
  sim::TimeMs arrival_ms = 0.0;
  dag::Dag dag;
  sim::SimResult result;
};

struct StreamOutcome {
  sim::StreamMetrics metrics;
  /// Retirement order; empty unless StreamOptions::record_schedules.
  std::vector<StreamAppSchedule> schedules;
};

class StreamEngine {
 public:
  /// The system and base cost model must outlive the engine. Admitted
  /// instances densify `base_cost` into PrecomputedCostModels shared
  /// across structurally identical DAGs (the shape pool).
  StreamEngine(const sim::System& system, const sim::CostModel& base_cost,
               DagSource source, StreamOptions options);

  /// Simulates the stream to completion. One-shot per call (the engine
  /// holds no mutable state between runs). Throws std::invalid_argument
  /// for non-dynamic policies, std::logic_error when the policy stalls,
  /// and std::runtime_error when the live-app guard trips.
  StreamOutcome run(sim::Policy& policy);

 private:
  class Context;

  const sim::System& system_;
  const sim::CostModel& base_cost_;
  DagSource source_;
  StreamOptions options_;
};

}  // namespace apt::stream
