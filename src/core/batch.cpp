#include "core/batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/policy_factory.hpp"
#include "lut/paper_data.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "sim/precomputed_cost_model.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace apt::core {

ExperimentPlan ExperimentPlan::paper(dag::DfgType type,
                                     std::vector<std::string> policy_specs,
                                     std::vector<double> rates_gbps) {
  ExperimentPlan plan;
  plan.graphs = dag::paper_workload(type);
  plan.policy_specs = std::move(policy_specs);
  plan.rates_gbps = std::move(rates_gbps);
  plan.table = lut::paper_lookup_table();
  return plan;
}

namespace {

/// The one expansion loop behind make_scenario_plan and
/// scenario_graph_labels, so labels can never drift from the graph axis.
/// Calls fn(family, kernels, flat_index) after validating the spec.
template <typename Fn>
void for_each_scenario_graph(const ScenarioSweepSpec& spec, Fn&& fn) {
  if (spec.families.empty())
    throw std::invalid_argument("make_scenario_plan: no families");
  if (spec.graphs_per_family == 0)
    throw std::invalid_argument(
        "make_scenario_plan: graphs_per_family must be >= 1");
  if (spec.kernel_counts.empty())
    throw std::invalid_argument("make_scenario_plan: no kernel counts");
  std::size_t index = 0;
  for (const std::string& name : spec.families) {
    const scenario::ScenarioFamily& family = scenario::family(name);
    for (std::size_t g = 0; g < spec.graphs_per_family; ++g, ++index) {
      const std::size_t kernels =
          std::max(family.min_kernels(),
                   spec.kernel_counts[g % spec.kernel_counts.size()]);
      fn(family, kernels, index);
    }
  }
}

}  // namespace

ExperimentPlan make_scenario_plan(const ScenarioSweepSpec& spec,
                                  std::vector<std::string> policy_specs,
                                  std::vector<double> rates_gbps) {
  ExperimentPlan plan;
  plan.policy_specs = std::move(policy_specs);
  plan.rates_gbps = std::move(rates_gbps);
  spec.topology.validate();
  plan.base_system.topology = spec.topology;
  for (const net::TopologySpec& t : spec.topologies) t.validate();
  plan.topologies = spec.topologies;
  plan.table = spec.synthetic ? lut::synthetic_lookup_table(*spec.synthetic)
                              : lut::paper_lookup_table();
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(plan.table);

  // Graph seeds come from their own salted stream family so a plan that
  // also uses base_seed-derived policy streams never reuses a seed.
  constexpr std::uint64_t kGraphSeedSalt = 0x5CE9A21C0FFEE123ULL;
  plan.graphs.reserve(spec.families.size() * spec.graphs_per_family);
  for_each_scenario_graph(
      spec, [&](const scenario::ScenarioFamily& family, std::size_t kernels,
                std::size_t index) {
        plan.graphs.push_back(family.generate(
            kernels,
            util::stream_seed(spec.graph_seed ^ kGraphSeedSalt, index), pool));
      });
  return plan;
}

std::vector<std::string> scenario_graph_labels(const ScenarioSweepSpec& spec) {
  std::vector<std::string> labels;
  labels.reserve(spec.families.size() * spec.graphs_per_family);
  for_each_scenario_graph(
      spec, [&](const scenario::ScenarioFamily& family, std::size_t kernels,
                std::size_t) {
        labels.push_back(std::string(family.name()) + "/n" +
                         std::to_string(kernels));
      });
  return labels;
}

std::size_t ExperimentPlan::task_count() const noexcept {
  return topology_count() * replications * rates_gbps.size() * graphs.size() *
         policy_specs.size();
}

BatchTask ExperimentPlan::task(std::size_t flat_index) const {
  // Row-major over (topology, replication, rate, graph, policy), policy
  // fastest — the nesting order of the serial experiment loops, with the
  // topology axis OUTERMOST so single-topology plans keep their historical
  // flat indices (and "{seed}" streams) bit for bit.
  BatchTask t;
  t.index = flat_index;
  t.policy = flat_index % policy_specs.size();
  flat_index /= policy_specs.size();
  t.graph = flat_index % graphs.size();
  flat_index /= graphs.size();
  t.rate = flat_index % rates_gbps.size();
  flat_index /= rates_gbps.size();
  t.replication = flat_index % replications;
  t.topology = flat_index / replications;
  t.seed = util::stream_seed(base_seed, t.index);
  return t;
}

std::vector<std::string> ExperimentPlan::validate() const {
  if (graphs.empty())
    throw std::invalid_argument("ExperimentPlan: no graphs");
  if (policy_specs.empty())
    throw std::invalid_argument("ExperimentPlan: no policy specs");
  if (rates_gbps.empty())
    throw std::invalid_argument("ExperimentPlan: no link rates");
  if (replications == 0)
    throw std::invalid_argument("ExperimentPlan: replications must be >= 1");
  for (const double rate : rates_gbps) {
    if (!(rate > 0.0))
      throw std::invalid_argument("ExperimentPlan: link rate must be > 0");
  }
  for (const net::TopologySpec& t : topologies) t.validate();
  // Fail fast on malformed specs (before any worker is spawned). Column p's
  // first task is (replication 0, rate 0, graph 0, policy p) — flat index p
  // — so seeded specs resolve here exactly as that task will, and the
  // resulting display names are the ones the batch result reports.
  std::vector<std::string> names;
  names.reserve(policy_specs.size());
  for (std::size_t p = 0; p < policy_specs.size(); ++p)
    names.push_back(make_policy(resolve_policy_spec(
                                    policy_specs[p],
                                    util::stream_seed(base_seed, p)))
                        ->name());
  return names;
}

std::string resolve_policy_spec(const std::string& spec, std::uint64_t seed) {
  static const std::string kPlaceholder = "{seed}";
  std::string out = spec;
  for (std::size_t at = out.find(kPlaceholder); at != std::string::npos;
       at = out.find(kPlaceholder, at)) {
    const std::string value = std::to_string(seed);
    out.replace(at, kPlaceholder.size(), value);
    at += value.size();
  }
  return out;
}

const Cell& BatchResult::at(std::size_t topology, std::size_t replication,
                            std::size_t rate, std::size_t graph,
                            std::size_t policy) const {
  if (topology >= topology_count || replication >= replications ||
      rate >= rate_count || graph >= graph_count || policy >= policy_count)
    throw std::out_of_range("BatchResult::at: index outside the result cube");
  return cells[(((topology * replications + replication) * rate_count + rate) *
                    graph_count +
                graph) *
                   policy_count +
               policy];
}

Grid BatchResult::grid(dag::DfgType type, std::size_t rate,
                       std::size_t replication, std::size_t topology) const {
  Grid grid;
  grid.type = type;
  grid.rate_gbps = rates_gbps.at(rate);
  grid.policy_names = policy_names;
  grid.policy_specs = policy_specs;
  grid.cells.resize(graph_count);
  for (std::size_t g = 0; g < graph_count; ++g) {
    grid.cells[g].reserve(policy_count);
    for (std::size_t p = 0; p < policy_count; ++p)
      grid.cells[g].push_back(at(topology, replication, rate, g, p));
  }
  return grid;
}

BatchRunner::BatchRunner(std::size_t jobs)
    : jobs_(jobs == 0 ? util::ThreadPool::default_thread_count() : jobs) {}

BatchRunner::~BatchRunner() = default;

namespace {

/// Shared read-only simulation inputs, built once per plan: one system per
/// (topology, link rate) and one densified cost model per (topology, rate,
/// graph), so the static planners of every policy column and replication
/// reuse the same tables instead of re-densifying them
/// (sim::dense_cost_model detects the pre-wrapped model).
struct SharedInputs {
  std::vector<std::vector<sim::System>> systems;           ///< [topo][rate]
  std::vector<std::vector<sim::LutCostModel>> lut_models;  ///< [topo][rate]
  /// [topo][rate][graph]
  std::vector<std::vector<std::vector<sim::PrecomputedCostModel>>> cost;

  SharedInputs(const ExperimentPlan& plan, const lut::LookupTable& table) {
    const std::size_t topo_count = plan.topology_count();
    systems.resize(topo_count);
    lut_models.resize(topo_count);
    cost.resize(topo_count);
    for (std::size_t t = 0; t < topo_count; ++t) {
      systems[t].reserve(plan.rates_gbps.size());
      lut_models[t].reserve(plan.rates_gbps.size());
      cost[t].reserve(plan.rates_gbps.size());
      for (const double rate : plan.rates_gbps) {
        sim::SystemConfig cfg = plan.base_system;
        cfg.link_rate_gbps = rate;
        cfg.topology = plan.topology_spec(t);
        systems[t].emplace_back(cfg);
        lut_models[t].emplace_back(table, systems[t].back());
      }
      for (std::size_t r = 0; r < plan.rates_gbps.size(); ++r) {
        cost[t].emplace_back();
        cost[t].back().reserve(plan.graphs.size());
        for (const dag::Dag& graph : plan.graphs)
          cost[t].back().emplace_back(graph, systems[t][r], lut_models[t][r]);
      }
    }
  }
};

/// One isolated simulation: own policy instance, shared read-only inputs.
Cell run_single_task(const ExperimentPlan& plan, const SharedInputs& shared,
                     const BatchTask& task) {
  const auto policy = make_policy(
      resolve_policy_spec(plan.policy_specs[task.policy], task.seed));
  return cell_from_outcome(
      run_policy(*policy, plan.graphs[task.graph],
                 shared.systems[task.topology][task.rate],
                 shared.cost[task.topology][task.rate][task.graph]));
}

}  // namespace

BatchResult BatchRunner::run(const ExperimentPlan& plan) const {
  std::vector<std::string> policy_names = plan.validate();
  const lut::LookupTable paper_fallback =
      plan.table.empty() ? lut::paper_lookup_table() : lut::LookupTable();
  const lut::LookupTable& table =
      plan.table.empty() ? paper_fallback : plan.table;

  BatchResult result;
  result.topology_count = plan.topology_count();
  result.replications = plan.replications;
  result.rate_count = plan.rates_gbps.size();
  result.graph_count = plan.graphs.size();
  result.policy_count = plan.policy_specs.size();
  result.policy_specs = plan.policy_specs;
  result.rates_gbps = plan.rates_gbps;
  result.policy_names = std::move(policy_names);
  result.topology_labels.reserve(result.topology_count);
  for (std::size_t t = 0; t < result.topology_count; ++t)
    result.topology_labels.push_back(plan.topology_spec(t).label());

  const SharedInputs shared(plan, table);
  result.cells.resize(plan.task_count());
  // Every task writes only its own pre-sized slot, so any interleaving of
  // workers yields the same cube as the serial loop.
  for_each_index(result.cells.size(), [&](std::size_t i) {
    result.cells[i] = run_single_task(plan, shared, plan.task(i));
  });
  return result;
}

void BatchRunner::for_each_index(
    std::size_t count, const std::function<void(std::size_t)>& body) const {
  if (jobs_ <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Sized to jobs_, not min(jobs_, count): the pool is created once and
  // reused for every later call, so sizing it to the first (possibly
  // small) fan-out would cap all subsequent, larger grids.
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(jobs_);
  pool_->for_each_index(count, body);
}

}  // namespace apt::core
