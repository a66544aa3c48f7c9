// Batch experiment orchestration: declarative sweep specs executed across a
// worker pool.
//
// An ExperimentPlan names the axes of a sweep — a DAG set × policy specs ×
// link rates × replications — and BatchRunner expands it into one
// simulation task per combination, fans the tasks over a thread pool, and
// collects the cells into a BatchResult indexed by the original axes.
//
// Determinism: every task is an isolated simulation (own policy instance,
// own system, own cost model) whose inputs depend only on the plan and the
// task's coordinates, and every task writes a pre-allocated result slot.
// Results are therefore bit-for-bit identical for any worker count,
// including the serial path (jobs == 1). Stochastic policies get their
// randomness from a per-task RNG stream: write "{seed}" in a policy spec
// (e.g. "random:{seed}") and each task substitutes
// util::stream_seed(plan.base_seed, task_index) — replications differ,
// reruns reproduce.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/runner.hpp"
#include "dag/graph.hpp"
#include "lut/lookup_table.hpp"
#include "lut/synthetic.hpp"
#include "sim/system.hpp"
#include "util/thread_pool.hpp"

namespace apt::core {

/// Coordinates of one simulation task inside a plan.
struct BatchTask {
  std::size_t topology = 0;  ///< index into the plan's topology axis
  std::size_t replication = 0;
  std::size_t rate = 0;    ///< index into ExperimentPlan::rates_gbps
  std::size_t graph = 0;   ///< index into ExperimentPlan::graphs
  std::size_t policy = 0;  ///< index into ExperimentPlan::policy_specs
  std::size_t index = 0;   ///< flat task index (the RNG stream id)
  std::uint64_t seed = 0;  ///< util::stream_seed(base_seed, index)
};

/// Declarative sweep specification. The task order (and therefore the RNG
/// stream assignment) is row-major over topology, replication, rate,
/// graph, policy — topology OUTERMOST so a single-topology plan's flat
/// indices (and therefore its "{seed}" policy streams) are identical to
/// the historical four-axis layout, and adding topologies appends whole
/// blocks without renumbering existing cells.
struct ExperimentPlan {
  std::vector<dag::Dag> graphs;
  std::vector<std::string> policy_specs;
  std::vector<double> rates_gbps = {4.0};

  /// Interconnect topology axis. Empty (the default) means one implicit
  /// topology — base_system.topology — which keeps every pre-axis plan
  /// seed-stable; non-empty overrides base_system.topology per task.
  std::vector<net::TopologySpec> topologies;

  std::size_t replications = 1;
  std::uint64_t base_seed = 0;

  /// Platform template; link_rate_gbps is overridden by the rate axis and
  /// topology by the topology axis (when non-empty).
  sim::SystemConfig base_system = sim::SystemConfig::paper_default();

  /// Cost table; defaults to the paper's lookup table.
  lut::LookupTable table;

  /// Convenience: the paper workload of `type` under the paper platform.
  static ExperimentPlan paper(dag::DfgType type,
                              std::vector<std::string> policy_specs,
                              std::vector<double> rates_gbps = {4.0});

  /// Size of the topology axis (>= 1: the implicit base_system topology
  /// counts when `topologies` is empty).
  std::size_t topology_count() const noexcept {
    return topologies.empty() ? 1 : topologies.size();
  }

  /// The spec of topology-axis index `t` (base_system.topology when the
  /// axis is implicit).
  const net::TopologySpec& topology_spec(std::size_t t) const {
    return topologies.empty() ? base_system.topology : topologies.at(t);
  }

  std::size_t task_count() const noexcept;
  BatchTask task(std::size_t flat_index) const;

  /// Throws std::invalid_argument when an axis is empty or a spec is
  /// malformed; returns the resolved display name of every policy column
  /// (the by-product of checking the specs, so callers need not construct
  /// the policies again).
  std::vector<std::string> validate() const;
};

/// Dense result cube addressed by the plan's axes.
struct BatchResult {
  std::size_t topology_count = 1;
  std::size_t replications = 0;
  std::size_t rate_count = 0;
  std::size_t graph_count = 0;
  std::size_t policy_count = 0;
  std::vector<std::string> topology_labels;  ///< [topology] display labels
  std::vector<std::string> policy_names;  ///< resolved display names
  std::vector<std::string> policy_specs;
  std::vector<double> rates_gbps;
  std::vector<Cell> cells;  ///< flat, in plan task order

  /// Full five-axis lookup (topology outermost, matching task order).
  const Cell& at(std::size_t topology, std::size_t replication,
                 std::size_t rate, std::size_t graph,
                 std::size_t policy) const;

  /// Four-axis convenience: topology 0 — exact historical behaviour for
  /// single-topology plans.
  const Cell& at(std::size_t replication, std::size_t rate, std::size_t graph,
                 std::size_t policy) const {
    return at(0, replication, rate, graph, policy);
  }

  /// One (topology, rate, replication) slice as the classic Grid.
  Grid grid(dag::DfgType type, std::size_t rate = 0,
            std::size_t replication = 0, std::size_t topology = 0) const;
};

/// Axes of a scenario-cube sweep: workload families × seeded graphs ×
/// platform. Expanded by make_scenario_plan into a concrete ExperimentPlan
/// on the ideal fabric (set the plan's topology axis afterwards) —
/// graphs are generated up-front on the calling thread, so BatchRunner's
/// bit-identical-for-any-job-count guarantee extends to scenario sweeps.
struct ScenarioSweepSpec {
  /// Registered scenario-family names (see scenario::family_names()).
  std::vector<std::string> families = {"type1"};

  std::size_t graphs_per_family = 10;

  /// Kernel count of the g-th graph of each family cycles through this
  /// list, raised to the family's minimum where below it.
  std::vector<std::size_t> kernel_counts = {46};

  /// Graph g of family f draws its seed from an independent stream of this
  /// base (decorrelated from the plan's policy-seed streams).
  std::uint64_t graph_seed = 1;

  /// Platform: when set, the plan's lookup table AND the generators' kernel
  /// pool come from synthetic_lookup_table(*synthetic); otherwise the
  /// paper's measured table.
  std::optional<lut::SyntheticLutSpec> synthetic;
};

/// Expands a scenario spec into a plan with graphs and table filled in.
/// Throws std::invalid_argument on empty axes or unknown family names.
ExperimentPlan make_scenario_plan(const ScenarioSweepSpec& spec,
                                  std::vector<std::string> policy_specs,
                                  std::vector<double> rates_gbps = {4.0});

/// Display label of every graph the spec expands to ("<family>/n<kernels>",
/// same order as the plan's graph axis) — lets result exporters attribute a
/// cell to its scenario coordinates instead of a bare graph index.
std::vector<std::string> scenario_graph_labels(const ScenarioSweepSpec& spec);

/// Expands "{seed}" placeholders in a policy spec with the task's stream
/// seed (exposed for tests).
std::string resolve_policy_spec(const std::string& spec, std::uint64_t seed);

/// Executes ExperimentPlans over a fixed number of worker threads. The
/// worker pool is created on the first parallel run() and reused by later
/// ones, so a long-lived runner pays thread spawn-up once. Not safe for
/// concurrent run() calls from multiple threads (tasks are already fanned
/// out internally).
class BatchRunner {
 public:
  /// `jobs` == 1 runs serially on the caller; 0 means one job per hardware
  /// thread.
  explicit BatchRunner(std::size_t jobs = 1);
  ~BatchRunner();

  std::size_t jobs() const noexcept { return jobs_; }

  BatchResult run(const ExperimentPlan& plan) const;

  /// Runs body(0) .. body(count-1) over this runner's workers (inline on
  /// the caller when jobs <= 1), reusing the lazily created pool. The
  /// primitive behind run() — exposed so other plan shapes (the streaming
  /// grid of core/stream_plan.hpp) fan out under the same determinism
  /// contract: bodies must write only their own pre-allocated slot.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& body) const;

 private:
  std::size_t jobs_;
  /// Created on the first parallel call, sized to jobs, reused after.
  mutable std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace apt::core
