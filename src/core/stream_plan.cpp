#include "core/stream_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "obs/profile.hpp"
#include "lut/paper_data.hpp"
#include "scenario/scenario.hpp"
#include "sim/cost_model.hpp"
#include "stream/stream_engine.hpp"
#include "util/rng.hpp"

namespace apt::core {

namespace {

/// Salt decorrelating per-cell instance-generation streams from the cell's
/// arrival/policy seed (same pattern as make_scenario_plan's graph salt).
constexpr std::uint64_t kInstanceSeedSalt = 0x57AE4E6A11CE5EEDULL;

/// Salt separating the per-row workload seed family from the per-cell
/// policy seed family derived from the same base seed.
constexpr std::uint64_t kWorkloadSeedSalt = 0xB10B5EA4B0A7F00DULL;

/// Salt folding the plan's noise seed into each row's workload seed, so
/// rows draw decorrelated noise but every policy column (and hedging mode)
/// of one row faces the identical perturbations.
constexpr std::uint64_t kNoiseSeedSalt = 0x4015E5EEDC3115A7ULL;

}  // namespace

std::vector<std::string> StreamPlan::validate() const {
  if (families.empty())
    throw std::invalid_argument("StreamPlan: no families");
  if (rates_per_ms.empty())
    throw std::invalid_argument("StreamPlan: no arrival rates");
  if (policy_specs.empty())
    throw std::invalid_argument("StreamPlan: no policy specs");
  if (kernels == 0)
    throw std::invalid_argument("StreamPlan: kernels must be >= 1");
  if (arrival_kind == stream::ArrivalKind::Trace) {
    // The rate axis is a label under a trace; the instants themselves must
    // validate. Reuse the spec's own checks (non-negative, non-decreasing).
    if (trace_arrivals.empty())
      throw std::invalid_argument(
          "StreamPlan: trace arrivals need trace_arrivals instants");
    stream::ArrivalSpec::trace(trace_arrivals).validate();
  } else {
    for (const double rate : rates_per_ms) {
      if (!std::isfinite(rate) || !(rate > 0.0))
        throw std::invalid_argument(
            "StreamPlan: arrival rates must be finite and > 0 apps/ms");
    }
  }
  if (arrival_kind != stream::ArrivalKind::Trace && max_apps == 0 &&
      !(horizon_ms > 0.0))
    throw std::invalid_argument(
        "StreamPlan: set max_apps or horizon_ms to bound the run");
  // The horizon first: the CLI derives the default warmup from it.
  if (!std::isfinite(horizon_ms) || horizon_ms < 0.0)
    throw std::invalid_argument(
        "StreamPlan: horizon must be finite and >= 0");
  if (!std::isfinite(warmup_ms) || warmup_ms < 0.0)
    throw std::invalid_argument("StreamPlan: warmup must be finite and >= 0");
  noise.validate();
  hedging.validate();
  for (const std::string& name : families)
    scenario::family(name);  // throws with the known-family list on a miss

  // Fail fast on malformed/static specs; column p's first cell is flat
  // index p, so seeded specs resolve here exactly as that cell will.
  std::vector<std::string> names;
  names.reserve(policy_specs.size());
  for (std::size_t p = 0; p < policy_specs.size(); ++p) {
    const auto policy = make_policy(
        resolve_policy_spec(policy_specs[p], util::stream_seed(base_seed, p)));
    if (!policy->is_dynamic())
      throw std::invalid_argument(
          "StreamPlan: policy '" + policy_specs[p] +
          "' plans statically from the whole DAG and cannot schedule an "
          "open-system stream — use a dynamic policy");
    names.push_back(policy->name());
  }
  return names;
}

StreamCellCoords stream_cell_coords(const StreamPlan& plan,
                                    std::size_t flat_index) {
  StreamCellCoords c;
  c.index = flat_index;
  c.policy = flat_index % plan.policy_specs.size();
  flat_index /= plan.policy_specs.size();
  c.rate = flat_index % plan.rates_per_ms.size();
  c.family = flat_index / plan.rates_per_ms.size();
  c.seed = util::stream_seed(plan.base_seed, c.index);
  c.workload_seed =
      util::stream_seed(plan.base_seed ^ kWorkloadSeedSalt,
                        c.family * plan.rates_per_ms.size() + c.rate);
  return c;
}

const StreamCellResult& StreamBatchResult::at(std::size_t family,
                                              std::size_t rate,
                                              std::size_t policy) const {
  if (family >= families.size() || rate >= rates_per_ms.size() ||
      policy >= policy_names.size())
    throw std::out_of_range(
        "StreamBatchResult::at: index outside the result grid");
  return cells[(family * rates_per_ms.size() + rate) * policy_names.size() +
               policy];
}

StreamBatchResult run_stream_plan(const StreamPlan& plan,
                                  const BatchRunner& runner) {
  std::vector<std::string> policy_names = plan.validate();

  const lut::LookupTable paper_fallback =
      plan.table.empty() ? lut::paper_lookup_table() : lut::LookupTable();
  const lut::LookupTable& table =
      plan.table.empty() ? paper_fallback : plan.table;

  // Shared read-only inputs: one system, one base cost model, one kernel
  // pool. Each cell's engine resolves every instance from the base model.
  const sim::System system(plan.base_system);
  const sim::LutCostModel base_cost(table, system);
  const dag::KernelPool pool = dag::KernelPool::from_lookup_table(table);

  StreamBatchResult result;
  result.families = plan.families;
  result.rates_per_ms = plan.rates_per_ms;
  result.policy_names = std::move(policy_names);
  result.policy_specs = plan.policy_specs;
  result.cells.resize(plan.cell_count());

  runner.for_each_index(result.cells.size(), [&](std::size_t i) {
    const StreamCellCoords cell = stream_cell_coords(plan, i);
    const scenario::ScenarioFamily& family =
        scenario::family(plan.families[cell.family]);
    const std::size_t kernels = std::max(family.min_kernels(), plan.kernels);

    stream::StreamOptions options;
    options.arrivals.kind = plan.arrival_kind;
    options.arrivals.rate_per_ms = plan.rates_per_ms[cell.rate];
    options.arrivals.seed = cell.workload_seed;
    if (plan.arrival_kind == stream::ArrivalKind::Trace)
      options.arrivals.arrival_times_ms = plan.trace_arrivals;
    options.max_apps = plan.max_apps;
    options.horizon_ms = plan.horizon_ms;
    options.warmup_ms = plan.warmup_ms;
    options.noise = plan.noise;
    options.hedging = plan.hedging;
    // The effective noise seed is per row (workload seed), not per cell:
    // every policy column — and a hedging-on rerun of the same plan — sees
    // the identical perturbation of the identical workload, so column
    // differences measure scheduling, not luck.
    options.noise.seed =
        util::stream_seed(cell.workload_seed ^ kNoiseSeedSalt,
                          plan.noise.seed);

    // Observability taps: a per-cell profile (stack-local — its snapshot is
    // folded into the cell's metrics before it goes out of scope), and the
    // plan's trace sink attached to exactly one cell so concurrent workers
    // never interleave events into it.
    obs::Profile profile;
    if (plan.profile) options.profile = &profile;
    if (plan.trace_sink && i == plan.trace_cell)
      options.sink = plan.trace_sink;

    // Instance k of the row is fully named by (workload seed, k): the same
    // coordinates regenerate the same application stream on any worker, and
    // every policy column of the row faces the identical stream.
    const std::uint64_t instance_base = cell.workload_seed ^ kInstanceSeedSalt;
    stream::DagSource source = [&family, kernels, instance_base,
                                &pool](std::size_t k) {
      return family.generate(kernels, util::stream_seed(instance_base, k),
                             pool);
    };

    const auto policy = make_policy(
        resolve_policy_spec(plan.policy_specs[cell.policy], cell.seed));
    stream::StreamEngine engine(system, base_cost, std::move(source),
                                std::move(options));
    const stream::StreamOutcome outcome = engine.run(*policy);

    StreamCellResult& out = result.cells[i];
    out.family = plan.families[cell.family];
    out.rate_per_ms = plan.rates_per_ms[cell.rate];
    out.policy_name = result.policy_names[cell.policy];
    out.policy_spec = plan.policy_specs[cell.policy];
    out.metrics = outcome.metrics;
  });
  return result;
}

}  // namespace apt::core
