// aptsim — command-line front end for the APT scheduling library. Each
// command's options are declared once, in its synopsis (kCommands below).
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/experiments.hpp"
#include "core/policy_factory.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/stream_plan.hpp"
#include "dag/generator.hpp"
#include "dag/serialize.hpp"
#include "lut/paper_data.hpp"
#include "lut/synthetic.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "obs/trace_sink.hpp"
#include "scenario/scenario.hpp"
#include "sim/analysis.hpp"
#include "sim/gantt.hpp"
#include "sim/trace.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "util/table_printer.hpp"

namespace {

using namespace apt;

/// One command's options: every option its synopsis declares, with the
/// value given ("1" for a given flag). Reading an option the synopsis does
/// not declare is a bug in the handler, so it throws std::logic_error.
struct Args {
  std::map<std::string, std::optional<std::string>> options;

  bool has(const std::string& key) const { return value(key).has_value(); }
  std::string get(const std::string& key, const std::string& fallback) const {
    return value(key).value_or(fallback);
  }
  const std::optional<std::string>& value(const std::string& key) const {
    const auto it = options.find(key);
    if (it == options.end())
      throw std::logic_error("--" + key + " is not in the command's synopsis");
    return it->second;
  }
};

/// Fails on any of `keys` given while `mode` (in force when `active`) is:
/// that mode would silently ignore them.
void reject_with(const Args& args, bool active, const std::string& mode,
                 std::initializer_list<const char*> keys) {
  if (!active) return;
  for (const char* key : keys)
    if (args.has(key))
      throw std::invalid_argument("--" + std::string(key) +
                                  " cannot go together with " + mode);
}

/// Splits a comma-separated option into trimmed, non-empty tokens.
std::vector<std::string> csv_tokens(const Args& args, const std::string& key,
                                    const std::string& fallback) {
  std::vector<std::string> out;
  for (const auto& token : util::split(args.get(key, fallback), ','))
    if (!util::trim(token).empty()) out.push_back(util::trim(token));
  return out;
}

/// The interconnects described by --topology/--bandwidth/--latency (see
/// src/net): ideal (default, uncontended), bus, crossbar, hier[:S], or the
/// routed kinds ring[:N], mesh:RxC, fattree[:K] whose transfers occupy a
/// multi-hop path. A comma list ("ideal,ring,mesh:2x2") is the topology
/// axis of `sweep` and `stream`; --bandwidth/--latency apply to every
/// entry, and --bandwidth 0 (the default) tracks the link rate, so --rates
/// sweeps the fabric too. Unknown kinds and malformed shapes (mesh:3x,
/// fattree:0) throw and surface as a CLI error.
std::vector<net::TopologySpec> topologies_from_args(const Args& args) {
  std::vector<net::TopologySpec> specs;
  for (const std::string& token : csv_tokens(args, "topology", "ideal")) {
    net::TopologySpec spec = net::parse_topology_spec(token);
    spec.bandwidth_gbps = util::parse_double(args.get("bandwidth", "0"));
    spec.latency_ms = util::parse_double(args.get("latency", "0"));
    spec.validate();
    specs.push_back(spec);
  }
  if (specs.empty())
    throw std::invalid_argument("--topology: no topologies given");
  return specs;
}

/// The paper DFG type of --type (default 1).
dag::DfgType dfg_from_args(const Args& args) {
  const std::int64_t type = util::parse_int(args.get("type", "1"));
  if (type != 1 && type != 2)
    throw std::invalid_argument("--type must be 1 or 2");
  return type == 1 ? dag::DfgType::Type1 : dag::DfgType::Type2;
}

/// The synthetic platform described by --ccr / --hetero / --lut-seed
/// (none given: nullopt), calibrated against the first of `rates`. The one
/// parse `gen`, `run`, `sweep` and `stream` share, so identical flags
/// always mean an identical platform.
std::optional<lut::SyntheticLutSpec> synthetic_spec_from_args(
    const Args& args, const std::vector<double>& rates) {
  if (!args.has("ccr") && !args.has("hetero") && !args.has("lut-seed"))
    return std::nullopt;
  lut::SyntheticLutSpec spec;
  spec.ccr = util::parse_double(args.get("ccr", "0.5"));
  spec.heterogeneity = util::parse_double(args.get("hetero", "4"));
  spec.seed = util::parse_uint(args.get("lut-seed", "1"));
  if (!rates.empty()) spec.link_rate_gbps = rates.front();
  return spec;
}

/// The lookup table a command costs against: an explicit --lut CSV, the
/// synthetic platform flags, or (default) the paper's measured table.
/// Mixing the two explicit forms is ambiguous and rejected rather than
/// silently resolved.
lut::LookupTable table_from_args(const Args& args,
                                 const std::vector<double>& rates) {
  reject_with(args, args.has("lut"), "--lut", {"ccr", "hetero", "lut-seed"});
  if (args.has("lut"))
    return lut::LookupTable::from_csv_file(args.get("lut", ""));
  if (const auto spec = synthetic_spec_from_args(args, rates))
    return lut::synthetic_lookup_table(*spec);
  return lut::paper_lookup_table();
}

/// The graph of `gen` and `run`: a --graph file, or a --family scenario or
/// (default) paper DFG of --type whose --kernels kernels come from `table`.
dag::Dag graph_from_args(const Args& args, const lut::LookupTable& table) {
  reject_with(args, args.has("graph"), "--graph",
              {"family", "type", "kernels"});
  reject_with(args, args.has("family"), "--family", {"type"});
  dag::Dag graph = [&] {
    if (args.has("graph")) return dag::load_text_file(args.get("graph", ""));
    const std::size_t n =
        static_cast<std::size_t>(util::parse_uint(args.get("kernels", "46")));
    const std::uint64_t seed = util::parse_uint(args.get("seed", "1"));
    const auto pool = dag::KernelPool::from_lookup_table(table);
    if (args.has("family")) {
      return scenario::generate(args.get("family", ""), n, seed, pool);
    }
    return dag::generate(dfg_from_args(args), n, seed, pool);
  }();
  if (args.has("arrivals")) {
    // --arrivals <mean-gap-ms>: stream the entry kernels in with Poisson
    // inter-arrival gaps instead of submitting everything at time zero.
    dag::apply_poisson_arrivals(graph,
                                util::parse_double(args.get("arrivals", "")),
                                util::parse_uint(args.get("seed", "1")));
  }
  return graph;
}

/// --trace-out writer knobs shared by `run` and `stream`: an event cap and
/// a per-category decimation stride (metadata is always kept, so tracks
/// stay named even when spans are dropped).
obs::ChromeTraceWriter::Options trace_options_from_args(const Args& args) {
  obs::ChromeTraceWriter::Options opt;
  opt.max_events = static_cast<std::size_t>(
      util::parse_uint(args.get("trace-max-events", "1048576")));
  opt.every = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             util::parse_uint(args.get("trace-every", "1"))));
  return opt;
}

/// Serialises a profiling snapshot as `{"counters": {...}, "timers":
/// {...}}` — the object the stream JSON exporter places next to
/// "tm_solver".
std::string profile_to_json(const obs::ProfileSnapshot& p) {
  std::string out = "{\"counters\": {";
  for (std::size_t i = 0; i < p.counters.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + util::json_escape(p.counters[i].name) +
           "\": " + std::to_string(p.counters[i].count);
  }
  out += "}, \"timers\": {";
  for (std::size_t i = 0; i < p.timers.size(); ++i) {
    if (i) out += ", ";
    const auto& t = p.timers[i];
    out += "\"" + util::json_escape(t.name) +
           "\": {\"count\": " + std::to_string(t.count) +
           ", \"total_ms\": " + util::format_double(t.total_ms, 3) +
           ", \"max_ms\": " + util::format_double(t.max_ms, 3) + "}";
  }
  out += "}}";
  return out;
}

/// Prints a profiling snapshot as one stdout table (counters first, then
/// timers with their accumulated wall-clock time).
void print_profile(const obs::ProfileSnapshot& p, const std::string& title) {
  std::cout << title << "\n";
  if (p.empty()) {
    std::cout << "  (no samples recorded)\n";
    return;
  }
  util::TablePrinter table({"hot-path metric", "count", "total ms", "max ms"});
  for (const auto& c : p.counters)
    table.add_row({c.name, std::to_string(c.count), "", ""});
  for (const auto& t : p.timers)
    table.add_row({t.name, std::to_string(t.count),
                   util::format_double(t.total_ms, 3),
                   util::format_double(t.max_ms, 3)});
  std::cout << table.to_string();
}

/// Writes a finished trace and reports where it went (and what the cap or
/// decimation dropped).
void finish_trace(const obs::ChromeTraceWriter& tracer,
                  const std::string& path) {
  tracer.write_file(path);
  std::cout << "trace written to " << path << " (" << tracer.event_count()
            << " events";
  if (tracer.dropped() > 0) std::cout << ", " << tracer.dropped() << " dropped";
  std::cout << ")\n";
}

int cmd_gen(const Args& args) {
  // Same table derivation as `run` — --lut CSV, the synthetic platform
  // flags (calibrated at --rate, default 4 GB/s), or the paper table — so
  // identical flags across `gen` and `run` always mean an identical
  // platform. The generators sample their kernels from that table's pool;
  // --lut-out saves it so the graph can be costed later
  // (`run --graph F --lut T.csv`).
  const lut::LookupTable table =
      table_from_args(args, {util::parse_double(args.get("rate", "4"))});
  const dag::Dag graph = graph_from_args(args, table);
  // Only after generation succeeded: a failed `gen` must not leave a
  // platform file behind for scripts to pick up.
  if (args.has("lut-out")) {
    table.save_csv_file(args.get("lut-out", ""));
    // Logged (default sink: stderr): stdout may be carrying the serialised
    // graph, and --log-level off silences the notice for scripts.
    APT_LOG_INFO << "lookup table written to " << args.get("lut-out", "");
  }
  // A --graph file has no family or type: its summary names the file, and
  // its DOT graph keeps to_dot's default name.
  std::string label = "type" + args.get("type", "1");
  if (args.has("graph"))
    label = args.get("graph", "");
  else if (args.has("family"))
    label = std::string(scenario::family(args.get("family", "")).name());
  if (args.has("dot")) {
    std::ofstream dot(args.get("dot", ""));
    dot << (args.has("graph") ? dag::to_dot(graph) : dag::to_dot(graph, label));
  }
  if (args.has("out")) {
    dag::save_text_file(graph, args.get("out", ""));
    std::cout << label << ": " << graph.node_count() << " kernels, "
              << graph.edge_count() << " edges, depth " << graph.depth()
              << " -> " << args.get("out", "") << "\n";
  } else {
    // Pipe-friendly: bare `gen` emits only the serialised graph.
    std::cout << dag::to_text(graph);
  }
  return 0;
}

int cmd_families(const Args&) {
  util::TablePrinter table({"family", "min kernels", "description"});
  for (const scenario::ScenarioFamily* family : scenario::all_families()) {
    table.add_row({family->name(), std::to_string(family->min_kernels()),
                   family->description()});
  }
  std::cout << table.to_string();
  return 0;
}

int cmd_run(const Args& args) {
  const double rate = util::parse_double(args.get("rate", "4"));
  // Costing table: --lut CSV (e.g. one saved by `gen --lut-out`), the
  // synthetic platform flags, or the paper's measured table. The same table
  // feeds the generator's kernel pool so --family graphs are costable.
  const lut::LookupTable table = table_from_args(args, {rate});
  const dag::Dag graph = graph_from_args(args, table);
  const std::string spec = args.get("policy", "apt:4");
  sim::SystemConfig config = sim::SystemConfig::paper_default(rate);
  const std::vector<net::TopologySpec> topologies = topologies_from_args(args);
  if (topologies.size() != 1)
    throw std::invalid_argument("run: --topology takes one topology");
  config.topology = topologies.front();
  const sim::System system(config);
  const auto policy = core::make_policy(spec);
  const sim::LutCostModel cost(table, system);

  // Observability taps (src/obs): both inert — attaching them cannot
  // change a simulated bit, so a traced run reproduces an untraced one.
  sim::EngineOptions engine_options;
  obs::Profile profile;
  reject_with(args, !args.has("trace-out"), "an untraced run (no --trace-out)",
              {"trace-max-events", "trace-every"});
  std::optional<obs::ChromeTraceWriter> tracer;
  if (args.has("trace-out")) {
    tracer.emplace(system, trace_options_from_args(args));
    engine_options.sink = &*tracer;
  }
  if (args.has("profile")) engine_options.profile = &profile;

  const auto outcome =
      core::run_policy(*policy, graph, system, cost, engine_options);

  std::cout << "policy:    " << outcome.policy_name << "\n";
  std::cout << "topology:  " << system.topology().spec().label() << "\n";
  std::cout << "kernels:   " << graph.node_count() << "\n";
  std::cout << "makespan:  " << util::format_double(outcome.metrics.makespan, 3)
            << " ms\n";
  std::cout << "lambda:    total "
            << util::format_double(outcome.metrics.lambda.total_ms, 3)
            << " ms, avg "
            << util::format_double(outcome.metrics.lambda.avg_ms, 3)
            << " ms, stddev "
            << util::format_double(outcome.metrics.lambda.stddev_ms, 3)
            << " ms over " << outcome.metrics.lambda.occurrences
            << " occurrences\n";
  for (const auto& proc : outcome.metrics.per_proc) {
    std::cout << "  " << proc.name << ": compute "
              << util::format_double(proc.compute_ms, 3) << " ms, transfer "
              << util::format_double(proc.transfer_ms, 3) << " ms, idle "
              << util::format_double(proc.idle_ms, 3) << " ms ("
              << proc.kernel_count << " kernels)\n";
  }
  if (outcome.metrics.alternative_count > 0) {
    std::cout << "alternative assignments: "
              << outcome.metrics.alternative_count << "\n";
    for (const auto& [kernel, count] :
         outcome.metrics.alternative_by_kernel)
      std::cout << "  " << count << "-" << kernel << "\n";
  }
  std::cout << "energy:    "
            << util::format_double(outcome.metrics.total_energy_j, 1)
            << " J\n";
  if (!outcome.metrics.per_link.empty()) {
    std::cout << "comm:      busy "
              << util::format_double(outcome.metrics.comm_busy_ms, 3)
              << " ms, overlap with compute "
              << util::format_double(outcome.metrics.comm_compute_overlap_ms,
                                     3)
              << " ms\n";
    for (const auto& link : outcome.metrics.per_link) {
      std::cout << "  link " << link.name << ": busy "
                << util::format_double(link.busy_ms, 3) << " ms ("
                << util::format_double(link.utilization * 100.0, 1) << "%), "
                << util::format_double(link.bytes / 1e6, 2) << " MB over "
                << link.transfer_count << " transfers";
      if (link.avg_hops > 1.0)
        std::cout << " (avg route " << util::format_double(link.avg_hops, 2)
                  << " hops)";
      std::cout << "\n";
    }
  }
  if (args.has("trace")) {
    std::cout << "\n"
              << sim::format_trace(system,
                                   sim::build_trace(graph, system,
                                                    outcome.result));
  }
  if (args.has("gantt")) {
    std::cout << "\n" << sim::ascii_gantt(graph, system, outcome.result);
  }
  if (args.has("analyze")) {
    std::cout << "\n"
              << sim::format_analysis(sim::analyze_schedule(
                     graph, system, cost, outcome.result));
  }
  if (tracer) finish_trace(*tracer, args.get("trace-out", ""));
  if (args.has("profile"))
    print_profile(profile.snapshot(), "profile (hot-path counters/timers):");
  if (args.has("csv")) {
    util::CsvTable csv({"node", "kernel", "data_size", "proc", "ready_ms",
                        "assign_ms", "exec_start_ms", "finish_ms",
                        "alternative"});
    for (const auto& k : outcome.result.schedule) {
      csv.add_row({std::to_string(k.node), graph.node(k.node).kernel,
                   std::to_string(graph.node(k.node).data_size),
                   system.processor(k.proc).name,
                   util::format_double(k.ready_time, 6),
                   util::format_double(k.assign_time, 6),
                   util::format_double(k.exec_start, 6),
                   util::format_double(k.finish_time, 6),
                   k.alternative ? "1" : "0"});
    }
    util::write_csv_file(csv, args.get("csv", ""));
    std::cout << "schedule written to " << args.get("csv", "") << "\n";
  }
  return 0;
}

int cmd_compare(const Args& args) {
  const dag::DfgType dfg = dfg_from_args(args);
  const double alpha = util::parse_double(args.get("alpha", "4"));
  const double rate = util::parse_double(args.get("rate", "4"));

  const core::Grid grid =
      core::run_paper_grid(dfg, core::paper_policy_specs(alpha), rate);

  std::vector<std::string> header = {"Graph"};
  for (const auto& name : grid.policy_names) header.push_back(name);
  util::TablePrinter table(header);
  for (std::size_t g = 0; g < grid.experiment_count(); ++g) {
    std::vector<std::string> row = {std::to_string(g + 1)};
    for (std::size_t p = 0; p < grid.policy_count(); ++p)
      row.push_back(util::format_double(grid.cells[g][p].makespan_ms, 0));
    table.add_row(row);
  }
  table.add_separator();
  std::vector<std::string> avg = {"avg"};
  for (std::size_t p = 0; p < grid.policy_count(); ++p)
    avg.push_back(util::format_double(grid.avg_makespan_ms(p), 0));
  table.add_row(avg);
  std::cout << "Total computation time (ms), " << dag::to_string(dfg)
            << ", rate " << rate << " GB/s\n"
            << table.to_string();
  std::cout << "APT improvement vs best other dynamic policy: "
            << util::format_double(core::improvement_exec_pct(grid, 0), 2)
            << "% exec, "
            << util::format_double(core::improvement_lambda_pct(grid, 0), 2)
            << "% lambda\n";
  return 0;
}

using util::json_escape;

/// Visits every cell of the result cube in task order (topology outermost)
/// with its axis coordinates — the one loop both exporters feed from.
template <typename Fn>
void for_each_sweep_cell(const core::BatchResult& result, Fn&& fn) {
  for (std::size_t t = 0; t < result.topology_count; ++t)
    for (std::size_t rep = 0; rep < result.replications; ++rep)
      for (std::size_t r = 0; r < result.rate_count; ++r)
        for (std::size_t g = 0; g < result.graph_count; ++g)
          for (std::size_t p = 0; p < result.policy_count; ++p)
            fn(t, rep, r, g, p, result.at(t, rep, r, g, p));
}

/// Serialises a sweep result as one JSON object (hand-rolled: the cube is
/// flat and numeric, no library needed). `graph_labels` names each graph's
/// scenario coordinates (family/size) so cells are attributable without
/// knowing the plan's expansion order.
std::string sweep_to_json(const core::BatchResult& result,
                          const std::string& type_name,
                          const std::vector<std::string>& graph_labels) {
  std::string out = "{\n  \"workload\": \"" + json_escape(type_name) + "\",\n";
  out += "  \"topologies\": [";
  for (std::size_t t = 0; t < result.topology_count; ++t) {
    if (t) out += ", ";
    out += "\"" + json_escape(result.topology_labels[t]) + "\"";
  }
  out += "],\n  \"policies\": [";
  for (std::size_t p = 0; p < result.policy_count; ++p) {
    if (p) out += ", ";
    out += "{\"name\": \"" + json_escape(result.policy_names[p]) +
           "\", \"spec\": \"" + json_escape(result.policy_specs[p]) + "\"}";
  }
  out += "],\n  \"rates_gbps\": [";
  for (std::size_t r = 0; r < result.rate_count; ++r) {
    if (r) out += ", ";
    out += util::format_double(result.rates_gbps[r], 3);
  }
  out += "],\n  \"cells\": [\n";
  bool first = true;
  for_each_sweep_cell(result, [&](std::size_t t, std::size_t rep,
                                  std::size_t r, std::size_t g, std::size_t p,
                                  const core::Cell& cell) {
    if (!first) out += ",\n";
    first = false;
    out += "    {\"topology\": \"" + json_escape(result.topology_labels[t]) +
           "\", \"replication\": " + std::to_string(rep) +
           ", \"rate_gbps\": " + util::format_double(result.rates_gbps[r], 3) +
           ", \"graph\": " + std::to_string(g + 1) +  // 1-based, as CSV
           ", \"workload\": \"" + json_escape(graph_labels.at(g)) +
           "\", \"policy\": \"" + json_escape(result.policy_names[p]) +
           "\", \"makespan_ms\": " + util::format_double(cell.makespan_ms, 6) +
           ", \"lambda_total_ms\": " +
           util::format_double(cell.lambda_total_ms, 6) +
           ", \"alternatives\": " + std::to_string(cell.alternative_count) +
           "}";
  });
  out += "\n  ]\n}\n";
  return out;
}

int cmd_sweep(const Args& args) {
  // Workload axis: either the paper's ten graphs of --type (default), or —
  // with --family — a generated scenario cube of one or more families,
  // optionally on a synthetic platform (--ccr/--hetero/--lut-seed).
  const bool family_mode = args.has("family");
  reject_with(args, family_mode, "--family", {"type"});
  reject_with(args, !family_mode, "the paper's graphs (no --family)",
              {"graphs", "kernels", "ccr", "hetero", "lut-seed"});
  // Labels the Grid slices; Type1 in family mode, where it means nothing.
  const dag::DfgType dfg = dfg_from_args(args);

  // Columns: explicit policy specs plus one APT column per alpha. With
  // neither option the sweep reproduces the thesis's alpha grid. Specs
  // validate against the policy registry here, so a typo dies with a
  // did-you-mean before any graph is generated.
  std::vector<std::string> specs;
  if (args.has("policies"))
    specs = core::parse_policy_list(args.get("policies", ""));
  if (args.has("alphas") || !args.has("policies")) {
    for (const auto& a : util::split(args.get("alphas", "1.5,2,4,8,16"), ','))
      specs.push_back("apt:" + util::format_double(util::parse_double(a), 3));
  }

  std::vector<double> rates;
  for (const auto& r : util::split(args.get("rates", "4,8"), ','))
    rates.push_back(util::parse_double(r));

  const std::uint64_t seed = util::parse_uint(args.get("seed", "0"));
  // --topology takes a comma list in sweep: the plan's outermost axis.
  const std::vector<net::TopologySpec> topologies = topologies_from_args(args);
  std::string workload_name;
  std::vector<std::string> graph_labels;  // per-graph, for the exporters
  core::ExperimentPlan plan;
  if (family_mode) {
    core::ScenarioSweepSpec spec;
    spec.families = csv_tokens(args, "family", "");
    spec.graphs_per_family =
        static_cast<std::size_t>(util::parse_uint(args.get("graphs", "10")));
    spec.kernel_counts.clear();
    for (const auto& k : util::split(args.get("kernels", "46"), ','))
      spec.kernel_counts.push_back(
          static_cast<std::size_t>(util::parse_uint(k)));
    spec.graph_seed = seed;
    spec.synthetic = synthetic_spec_from_args(args, rates);
    plan = core::make_scenario_plan(spec, specs, rates);
    workload_name = "scenario[" + util::join(spec.families, "+") + "]";
    graph_labels = core::scenario_graph_labels(spec);
  } else {
    plan = core::ExperimentPlan::paper(dfg, specs, rates);
    workload_name = dag::to_string(dfg);
    graph_labels.assign(plan.graphs.size(), workload_name);
  }
  plan.base_system.topology = topologies.front();
  plan.topologies = topologies;
  plan.replications =
      static_cast<std::size_t>(util::parse_uint(args.get("reps", "1")));
  plan.base_seed = seed;

  const std::size_t jobs =
      static_cast<std::size_t>(util::parse_uint(args.get("jobs", "1")));
  const core::BatchRunner runner(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  const core::BatchResult result = runner.run(plan);
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  // One Grid per (topology, replication, rate) slice; the summary averages
  // over all replications and sums their wins, so stochastic sweeps
  // (--reps > 1) are fully represented, not just replication 0.
  const double reps = static_cast<double>(result.replications);
  util::TablePrinter table({"topology", "policy", "rate GB/s",
                            "avg makespan ms", "avg lambda ms", "wins"});
  for (std::size_t t = 0; t < result.topology_count; ++t) {
    for (std::size_t p = 0; p < result.policy_count; ++p) {
      for (std::size_t r = 0; r < result.rate_count; ++r) {
        double makespan = 0.0;
        double lambda = 0.0;
        std::size_t wins = 0;
        for (std::size_t rep = 0; rep < result.replications; ++rep) {
          const core::Grid grid = result.grid(dfg, r, rep, t);
          makespan += grid.avg_makespan_ms(p);
          lambda += grid.avg_lambda_ms(p);
          wins += grid.wins(p);
        }
        table.add_row({result.topology_labels[t], result.policy_names[p],
                       util::format_double(result.rates_gbps[r], 0),
                       util::format_double(makespan / reps, 1),
                       util::format_double(lambda / reps, 1),
                       std::to_string(wins)});
      }
    }
  }
  std::cout << "sweep, " << workload_name << ", topology "
            << util::join(result.topology_labels, "+") << ", "
            << result.graph_count << " graphs x " << result.policy_count
            << " policies x " << result.rate_count << " rates x "
            << result.topology_count << " topologies x "
            << result.replications << " reps = " << result.cells.size()
            << " runs in " << util::format_double(elapsed_ms, 1) << " ms ("
            << runner.jobs() << " jobs)\n"
            << table.to_string();

  if (args.has("csv")) {
    util::CsvTable csv({"replication", "rate_gbps", "topology", "graph",
                        "workload", "policy", "spec", "makespan_ms",
                        "lambda_total_ms", "lambda_avg_ms",
                        "lambda_stddev_ms", "alternatives"});
    for_each_sweep_cell(result, [&](std::size_t t, std::size_t rep,
                                    std::size_t r, std::size_t g,
                                    std::size_t p, const core::Cell& cell) {
      csv.add_row({std::to_string(rep),
                   util::format_double(result.rates_gbps[r], 3),
                   result.topology_labels[t], std::to_string(g + 1),
                   graph_labels.at(g), result.policy_names[p],
                   result.policy_specs[p],
                   util::format_double(cell.makespan_ms, 6),
                   util::format_double(cell.lambda_total_ms, 6),
                   util::format_double(cell.lambda_avg_ms, 6),
                   util::format_double(cell.lambda_stddev_ms, 6),
                   std::to_string(cell.alternative_count)});
    });
    util::write_csv_file(csv, args.get("csv", ""));
    std::cout << "cells written to " << args.get("csv", "") << "\n";
  }
  if (args.has("json")) {
    std::ofstream out(args.get("json", ""), std::ios::binary);
    if (!out)
      throw std::runtime_error("sweep: cannot open '" +
                               args.get("json", "") + "'");
    out << sweep_to_json(result, workload_name, graph_labels);
    std::cout << "cells written to " << args.get("json", "") << "\n";
  }
  return 0;
}

/// Reads an arrival-trace file: one absolute arrival instant (ms) per
/// line; blank lines and '#' comments are skipped. Validation (ordering,
/// sign) is the ArrivalSpec's job.
std::vector<sim::TimeMs> read_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("stream: cannot open trace file '" + path + "'");
  std::vector<sim::TimeMs> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::string token = util::trim(line);
    if (token.empty() || token[0] == '#') continue;
    out.push_back(util::parse_double(token));
  }
  if (out.empty())
    throw std::runtime_error("stream: trace file '" + path +
                             "' holds no arrival instants");
  return out;
}

/// One (topology × tail-probability × hedging-mode) slice of the stream
/// ablation: the whole grid rerun under those fabric/noise/hedging
/// settings. Topology is the outermost axis, so a comm-aware vs comm-blind
/// policy pair is compared across every routed fabric × arrival rate in a
/// single CSV/JSON.
struct StreamAblationRun {
  std::string topology_label;
  double tail_prob = 0.0;
  bool hedging = false;
  core::StreamBatchResult result;
};

/// The comm_aware ablation column of a policy spec ("true"/"false" from
/// the registry flag; unknown specs — impossible after parse_policy_list —
/// report "false").
const char* comm_aware_label(const std::string& spec) {
  const core::PolicyInfo* info = core::find_policy_info(spec);
  return info && info->comm_aware ? "true" : "false";
}

int cmd_stream(const Args& args) {
  core::StreamPlan plan;
  plan.families = csv_tokens(args, "family", "type1");
  plan.rates_per_ms.clear();
  for (const auto& r : csv_tokens(args, "rate", "0.01"))
    plan.rates_per_ms.push_back(util::parse_double(r));
  // Registry-validated: a typo fails here with a did-you-mean instead of
  // mid-run inside a worker.
  plan.policy_specs =
      core::parse_policy_list(args.get("policies", "apt:4,met,spn,ag"));
  plan.kernels =
      static_cast<std::size_t>(util::parse_uint(args.get("kernels", "46")));
  plan.arrival_kind =
      stream::parse_arrival_kind(args.get("arrival", "poisson"));
  reject_with(args, plan.arrival_kind != stream::ArrivalKind::Trace,
              std::string("--arrival ") + stream::to_string(plan.arrival_kind),
              {"trace-file"});
  if (plan.arrival_kind == stream::ArrivalKind::Trace) {
    if (!args.has("trace-file"))
      throw std::runtime_error(
          "stream: --arrival trace needs --trace-file FILE");
    plan.trace_arrivals = read_trace_file(args.get("trace-file", ""));
  }
  plan.max_apps =
      static_cast<std::size_t>(util::parse_uint(args.get("max-apps", "0")));
  plan.horizon_ms = util::parse_double(args.get("duration", "60000"));
  // Warmup default: the first tenth of the admission horizon, so
  // steady-state metrics are not biased by the initial empty-system ramp.
  plan.warmup_ms = args.has("warmup")
                       ? util::parse_double(args.get("warmup", ""))
                       : plan.horizon_ms * 0.1;
  plan.base_seed = util::parse_uint(args.get("seed", "0"));
  const double link_rate = util::parse_double(args.get("link-rate", "4"));
  plan.base_system = sim::SystemConfig::paper_default(link_rate);
  // --topology takes a comma list: each fabric reruns the whole grid as an
  // ablation slice (workload seeds depend only on the plan's base seed, so
  // every fabric faces the identical arrival sequence).
  const std::vector<net::TopologySpec> topologies = topologies_from_args(args);
  plan.base_system.topology = topologies.front();
  plan.table = table_from_args(args, {link_rate});
  std::vector<std::string> topology_labels;
  for (const net::TopologySpec& t : topologies)
    topology_labels.push_back(t.label());
  const std::string topology_label = util::join(topology_labels, "+");

  // Service-time noise + hedging ablation axes. All default to off, which
  // reproduces noise-free streams bit-for-bit.
  plan.noise.sigma = util::parse_double(args.get("noise-sigma", "0"));
  plan.noise.heavy_tail_multiplier =
      util::parse_double(args.get("tail-mult", "20"));
  plan.noise.seed = util::parse_uint(args.get("noise-seed", "0"));
  std::vector<double> tail_probs;
  bool noise_on = plan.noise.sigma > 0.0;
  for (const auto& p : csv_tokens(args, "tail-prob", "0")) {
    tail_probs.push_back(util::parse_double(p));
    noise_on = noise_on || tail_probs.back() > 0.0;
  }
  reject_with(args, !noise_on,
              "noise off (no --noise-sigma or --tail-prob above 0)",
              {"noise-seed", "tail-mult"});
  const std::string hedging_mode = args.get("hedging", "off");
  std::vector<bool> hedging_modes;
  if (hedging_mode == "off")
    hedging_modes = {false};
  else if (hedging_mode == "on")
    hedging_modes = {true};
  else if (hedging_mode == "both")
    hedging_modes = {false, true};
  else
    throw std::runtime_error("stream: --hedging must be on, off, or both");
  reject_with(args, hedging_mode == "off", "--hedging off",
              {"hedge-quantile", "hedge-factor"});
  plan.hedging.quantile =
      util::parse_double(args.get("hedge-quantile", "0.95"));
  plan.hedging.threshold_factor =
      util::parse_double(args.get("hedge-factor", "1.5"));

  // Observability (src/obs): --profile attaches a per-cell profile (each
  // snapshot lands in its cell's metrics and the JSON export); --trace-out
  // captures the timeline of flat cell 0 — the grid's first family/rate/
  // policy cell — of the FIRST ablation slice, so the sink never sees
  // interleaved cells.
  plan.profile = args.has("profile");
  const sim::System trace_system(plan.base_system);
  reject_with(args, !args.has("trace-out"), "an untraced run (no --trace-out)",
              {"trace-max-events", "trace-every"});
  std::optional<obs::ChromeTraceWriter> tracer;
  if (args.has("trace-out")) {
    tracer.emplace(trace_system, trace_options_from_args(args));
    plan.trace_sink = &*tracer;
    plan.trace_cell = 0;
  }

  const std::size_t jobs =
      static_cast<std::size_t>(util::parse_uint(args.get("jobs", "1")));
  const core::BatchRunner runner(jobs);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<StreamAblationRun> runs;
  for (const net::TopologySpec& topo : topologies) {
    plan.base_system.topology = topo;
    for (const double tail_prob : tail_probs) {
      for (const bool hedging : hedging_modes) {
        plan.noise.heavy_tail_prob = tail_prob;
        plan.hedging.enabled = hedging;
        runs.push_back(StreamAblationRun{
            topo.label(), tail_prob, hedging,
            core::run_stream_plan(plan, runner)});
        plan.trace_sink = nullptr;  // only the first slice is traced
      }
    }
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();

  const core::StreamBatchResult& first = runs.front().result;
  std::cout << "stream, " << first.families.size() << " families x "
            << first.rates_per_ms.size() << " rates x "
            << first.policy_names.size() << " policies x " << runs.size()
            << " topology/noise/hedging slices = "
            << first.cells.size() * runs.size() << " cells in "
            << util::format_double(elapsed_ms, 1) << " ms (" << runner.jobs()
            << " jobs), arrivals " << stream::to_string(plan.arrival_kind)
            << ", topology " << topology_label << ", horizon "
            << util::format_double(plan.horizon_ms, 0) << " ms, warmup "
            << util::format_double(plan.warmup_ms, 0) << " ms, noise sigma "
            << util::format_double(plan.noise.sigma, 3) << "\n";
  util::TablePrinter table({"family", "rate/ms", "topology", "policy",
                            "tail", "hedge", "apps", "thrpt/s",
                            "flow avg ms", "flow p95 ms", "flow p99 ms",
                            "slowdown", "util %", "hedges w/l"});
  for (const StreamAblationRun& run : runs) {
    for (const core::StreamCellResult& cell : run.result.cells) {
      const sim::StreamMetrics& m = cell.metrics;
      const std::size_t lost = m.hedges_launched - m.hedges_replica_won;
      table.add_row({cell.family, util::format_double(cell.rate_per_ms, 6),
                     run.topology_label, cell.policy_name,
                     util::format_double(run.tail_prob, 3),
                     run.hedging ? "on" : "off",
                     std::to_string(m.apps_measured),
                     util::format_double(m.throughput_apps_per_s, 2),
                     util::format_double(m.flow_ms.avg, 1),
                     util::format_double(m.flow_ms.p95, 1),
                     util::format_double(m.flow_ms.p99, 1),
                     util::format_double(m.slowdown.avg, 2),
                     util::format_double(m.avg_utilization * 100.0, 1),
                     std::to_string(m.hedges_replica_won) + "/" +
                         std::to_string(lost)});
    }
  }
  std::cout << table.to_string();

  if (tracer) {
    std::cout << "traced cell: family " << first.families.front() << ", rate "
              << util::format_double(first.rates_per_ms.front(), 6)
              << "/ms, policy " << first.policy_names.front() << ", topology "
              << runs.front().topology_label << "\n";
    finish_trace(*tracer, args.get("trace-out", ""));
  }
  if (plan.profile) {
    // Aggregate the per-cell snapshots for the console (sums over all
    // cells and slices; timer max is the max across cells). The JSON
    // export below keeps them per cell.
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, obs::ProfileSnapshot::TimerEntry> timers;
    for (const StreamAblationRun& run : runs) {
      for (const core::StreamCellResult& cell : run.result.cells) {
        for (const auto& c : cell.metrics.profile.counters)
          counters[c.name] += c.count;
        for (const auto& t : cell.metrics.profile.timers) {
          obs::ProfileSnapshot::TimerEntry& tot = timers[t.name];
          tot.name = t.name;
          tot.count += t.count;
          tot.total_ms += t.total_ms;
          tot.max_ms = std::max(tot.max_ms, t.max_ms);
        }
      }
    }
    obs::ProfileSnapshot aggregate;
    for (const auto& [name, count] : counters)
      aggregate.counters.push_back({name, count});
    for (const auto& timer : timers) aggregate.timers.push_back(timer.second);
    print_profile(aggregate, "profile (summed over all cells/slices):");
  }

  if (args.has("csv")) {
    util::CsvTable csv(
        {"family", "rate_per_ms", "topology", "policy", "spec", "comm_aware",
         "apps_arrived",
         "apps_completed", "apps_measured", "throughput_apps_per_s",
         "flow_avg_ms", "flow_p50_ms", "flow_p95_ms", "flow_p99_ms",
         "flow_max_ms",
         "slowdown_avg", "slowdown_p50", "slowdown_p95", "slowdown_p99",
         "slowdown_max",
         "avg_utilization", "queue_depth_avg", "queue_depth_max",
         "live_apps_avg", "live_apps_max", "warmup_ms", "end_ms",
         "noise_sigma", "tail_prob", "tail_mult", "hedging",
         "hedges_launched", "hedges_replica_won", "hedge_wasted_ms"});
    for (const StreamAblationRun& run : runs) {
      for (const core::StreamCellResult& cell : run.result.cells) {
        const sim::StreamMetrics& m = cell.metrics;
        csv.add_row({cell.family, util::format_double(cell.rate_per_ms, 6),
                     run.topology_label, cell.policy_name, cell.policy_spec,
                     comm_aware_label(cell.policy_spec),
                     std::to_string(m.apps_arrived),
                     std::to_string(m.apps_completed),
                     std::to_string(m.apps_measured),
                     util::format_double(m.throughput_apps_per_s, 6),
                     util::format_double(m.flow_ms.avg, 6),
                     util::format_double(m.flow_ms.p50, 6),
                     util::format_double(m.flow_ms.p95, 6),
                     util::format_double(m.flow_ms.p99, 6),
                     util::format_double(m.flow_ms.max, 6),
                     util::format_double(m.slowdown.avg, 6),
                     util::format_double(m.slowdown.p50, 6),
                     util::format_double(m.slowdown.p95, 6),
                     util::format_double(m.slowdown.p99, 6),
                     util::format_double(m.slowdown.max, 6),
                     util::format_double(m.avg_utilization, 6),
                     util::format_double(m.queue_depth_avg, 6),
                     std::to_string(m.queue_depth_max),
                     util::format_double(m.live_apps_avg, 6),
                     std::to_string(m.live_apps_max),
                     util::format_double(m.warmup_ms, 3),
                     util::format_double(m.end_ms, 3),
                     util::format_double(plan.noise.sigma, 6),
                     util::format_double(run.tail_prob, 6),
                     util::format_double(plan.noise.heavy_tail_multiplier, 6),
                     run.hedging ? "on" : "off",
                     std::to_string(m.hedges_launched),
                     std::to_string(m.hedges_replica_won),
                     util::format_double(m.hedge_wasted_ms, 6)});
      }
    }
    util::write_csv_file(csv, args.get("csv", ""));
    std::cout << "cells written to " << args.get("csv", "") << "\n";
  }
  if (args.has("json")) {
    std::ofstream out(args.get("json", ""), std::ios::binary);
    if (!out)
      throw std::runtime_error("stream: cannot open '" +
                               args.get("json", "") + "'");
    out << "{\n  \"workload\": \"stream\",\n  \"arrivals\": \""
        << stream::to_string(plan.arrival_kind) << "\",\n  \"topology\": \""
        << json_escape(topology_label) << "\",\n  \"noise_sigma\": "
        << util::format_double(plan.noise.sigma, 6) << ",\n  \"cells\": [\n";
    std::size_t emitted = 0;
    const std::size_t total = first.cells.size() * runs.size();
    for (const StreamAblationRun& run : runs) {
      for (const core::StreamCellResult& cell : run.result.cells) {
        const sim::StreamMetrics& m = cell.metrics;
        out << "    {\"family\": \"" << json_escape(cell.family)
            << "\", \"rate_per_ms\": "
            << util::format_double(cell.rate_per_ms, 6)
            << ", \"topology\": \"" << json_escape(run.topology_label)
            << "\", \"policy\": \""
            << json_escape(cell.policy_name) << "\", \"spec\": \""
            << json_escape(cell.policy_spec) << "\", \"comm_aware\": "
            << comm_aware_label(cell.policy_spec)
            << ", \"tail_prob\": " << util::format_double(run.tail_prob, 6)
            << ", \"hedging\": " << (run.hedging ? "true" : "false")
            << ", \"apps_measured\": " << m.apps_measured
            << ", \"throughput_apps_per_s\": "
            << util::format_double(m.throughput_apps_per_s, 6)
            << ", \"flow_avg_ms\": " << util::format_double(m.flow_ms.avg, 6)
            << ", \"flow_p95_ms\": " << util::format_double(m.flow_ms.p95, 6)
            << ", \"flow_p99_ms\": " << util::format_double(m.flow_ms.p99, 6)
            << ", \"slowdown_avg\": "
            << util::format_double(m.slowdown.avg, 6)
            << ", \"slowdown_p99\": "
            << util::format_double(m.slowdown.p99, 6)
            << ", \"avg_utilization\": "
            << util::format_double(m.avg_utilization, 6)
            << ", \"queue_depth_avg\": "
            << util::format_double(m.queue_depth_avg, 6)
            << ", \"queue_depth_max\": " << m.queue_depth_max
            << ", \"hedges_launched\": " << m.hedges_launched
            << ", \"hedges_replica_won\": " << m.hedges_replica_won
            << ", \"hedge_wasted_ms\": "
            << util::format_double(m.hedge_wasted_ms, 6)
            << ", \"tm_solver\": {\"full\": " << m.tm_solve_stats.full_solves
            << ", \"incremental\": " << m.tm_solve_stats.incremental_solves
            << ", \"fallback\": " << m.tm_solve_stats.fallback_solves
            << ", \"flows_resolved\": " << m.tm_solve_stats.flows_resolved
            << ", \"flows_active\": " << m.tm_solve_stats.flows_active
            << "}";
        if (!m.profile.empty())
          out << ", \"profile\": " << profile_to_json(m.profile);
        out << ", \"queue_depth_samples\": [";
        for (std::size_t s = 0; s < m.queue_depth_samples.size(); ++s) {
          if (s) out << ", ";
          out << "["
              << util::format_double(m.queue_depth_samples[s].first, 3)
              << ", " << m.queue_depth_samples[s].second << "]";
        }
        ++emitted;
        out << "]}" << (emitted < total ? ",\n" : "\n");
      }
    }
    out << "  ]\n}\n";
    std::cout << "cells written to " << args.get("json", "") << "\n";
  }
  return 0;
}

int cmd_lut(const Args& args) {
  const lut::LookupTable table = lut::paper_lookup_table();
  if (args.has("csv")) {
    table.save_csv_file(args.get("csv", ""));
    std::cout << "lookup table written to " << args.get("csv", "") << "\n";
    return 0;
  }
  util::TablePrinter printer({"Kernel", "Data Size", "CPU (ms)", "GPU (ms)",
                              "FPGA (ms)"});
  for (const auto& e : table.entries()) {
    printer.add_row({e.kernel, std::to_string(e.data_size),
                     util::format_double(e.time(lut::ProcType::CPU), 3),
                     util::format_double(e.time(lut::ProcType::GPU), 3),
                     util::format_double(e.time(lut::ProcType::FPGA), 3)});
  }
  std::cout << printer.to_string();
  return 0;
}

int cmd_report(const Args& args) {
  const std::string dir = args.get("out-dir", "report");
  const double alpha = util::parse_double(args.get("alpha", "4"));
  std::filesystem::create_directories(dir);
  std::cout << "Regenerating the reproduction bundle (alpha = " << alpha
            << ") into " << dir << "/ ...\n";
  for (const auto& name : core::write_report_bundle(dir, alpha))
    std::cout << "  " << name << "\n";
  return 0;
}

int cmd_policies(const Args&) {
  // One row per registry entry: usage, dynamic/static, summary, aliases.
  std::size_t width = 0;
  for (const auto& info : core::policy_registry())
    width = std::max(width, info.usage.size());
  std::cout << "known policies (SPEC forms for --policy / --policies):\n";
  for (const auto& info : core::policy_registry()) {
    std::cout << "  " << info.usage
              << std::string(width - info.usage.size() + 2, ' ')
              << (info.dynamic ? "dynamic  " : "static   ") << info.summary;
    if (!info.aliases.empty())
      std::cout << " [aka " << util::join(info.aliases, ", ") << "]";
    std::cout << "\n";
  }
  return 0;
}

// Build info injected by CMake (git describe + CMAKE_BUILD_TYPE); the
// fallbacks keep non-CMake builds (e.g. a bare compiler invocation)
// working.
#ifndef APTSIM_GIT_DESCRIBE
#define APTSIM_GIT_DESCRIBE "unknown"
#endif
#ifndef APTSIM_BUILD_TYPE
#define APTSIM_BUILD_TYPE "unknown"
#endif

int cmd_version(const Args&) {
  std::cout << "aptsim " << APTSIM_GIT_DESCRIBE << " (" << APTSIM_BUILD_TYPE
            << " build)\n";
  return 0;
}

/// One command: its synopsis, as `aptsim <command> --help` and the full
/// usage print it, and its handler. The synopsis is also the command's
/// grammar: parse_args accepts exactly the `--name` tokens it declares.
struct Command {
  const char* name;
  const char* alias;  // a second spelling of `name`, or ""
  int (*run)(const Args&);
  const char* synopsis;
};

const Command kCommands[] = {
    {"gen", "generate", cmd_gen,
     "  aptsim gen [--graph F | --family NAME | --type 1|2] --kernels N\n"
     "             --seed S [--out F] [--dot F] [--arrivals MEAN_MS]\n"
     "             [--lut F.csv | --ccr X --hetero H --lut-seed S]\n"
     "             [--rate GBPS] [--lut-out F]   (alias: generate)\n"},
    {"run", "", cmd_run,
     "  aptsim run --policy SPEC [--graph F | --family NAME | --type T]\n"
     "             [--kernels N] [--seed S] [--rate GBPS]\n"
     "             [--lut F.csv | --ccr X --hetero H --lut-seed S]\n"
     "             [--topology ideal|bus|crossbar|hier[:S]|\n"
     "                  ring[:N]|mesh:RxC|fattree[:K]]\n"
     "             [--bandwidth GBPS] [--latency MS]\n"
     "             [--arrivals MEAN_MS] [--trace] [--gantt] [--analyze]\n"
     "             [--csv F] [--trace-out F.json] [--trace-max-events N]\n"
     "             [--trace-every K] [--profile]\n"},
    {"compare", "", cmd_compare,
     "  aptsim compare [--type T] [--alpha A] [--rate GBPS]\n"},
    {"sweep", "", cmd_sweep,
     "  aptsim sweep [--type T | --family NAME,... [--graphs G]\n"
     "               [--kernels N,...] [--ccr X] [--hetero H]\n"
     "               [--lut-seed S]] [--policies SPEC,...]\n"
     "               [--alphas 1.5,2,4] [--rates 4,8] [--jobs N] [--reps R]\n"
     "               [--topology KIND,...  (ideal|bus|crossbar|hier[:S]|\n"
     "                  ring[:N]|mesh:RxC|fattree[:K]; a comma list sweeps\n"
     "                  the topology axis)]\n"
     "               [--bandwidth GBPS] [--latency MS]\n"
     "               [--seed S] [--csv F] [--json F]\n"},
    {"stream", "", cmd_stream,
     "  aptsim stream [--family NAME,...] [--rate L,... (apps/ms)]\n"
     "               [--policies SPEC,...] [--kernels N]\n"
     "               [--arrival poisson|deterministic|trace\n"
     "                  [--trace-file F]] [--duration MS]\n"
     "               [--warmup MS] [--max-apps N] [--seed S]\n"
     "               [--link-rate GBPS]\n"
     "               [--noise-sigma S] [--tail-prob P,...] [--tail-mult M]\n"
     "               [--noise-seed S] [--hedging on|off|both]\n"
     "               [--hedge-quantile Q] [--hedge-factor F]\n"
     "               [--lut F.csv | --ccr X --hetero H --lut-seed S]\n"
     "               [--topology KIND,...  (comma list reruns the grid per\n"
     "                  fabric — the comm-aware ablation axis)]\n"
     "               [--bandwidth GBPS] [--latency MS]\n"
     "               [--jobs N] [--csv F] [--json F]\n"
     "               [--trace-out F.json] [--trace-max-events N]\n"
     "               [--trace-every K] [--profile]\n"},
    {"families", "", cmd_families, "  aptsim families\n"},
    {"lut", "", cmd_lut, "  aptsim lut [--csv F]\n"},
    {"report", "", cmd_report, "  aptsim report [--out-dir D] [--alpha A]\n"},
    {"policies", "", cmd_policies, "  aptsim policies\n"},
    {"version", "--version", cmd_version, "  aptsim version | --version\n"},
};

void usage() {
  std::cout << "aptsim — heterogeneous-scheduling simulator (APT "
               "reproduction)\n\nusage:\n";
  for (const Command& c : kCommands) std::cout << c.synopsis;
  std::cout <<
      "\n"
      "global: --log-level debug|info|warn|error|off   (default info)\n"
      "        --help, -h after a command prints that command's usage\n"
      "\n"
      "--trace-out writes a Chrome-trace/Perfetto-loadable JSON timeline\n"
      "(load it at https://ui.perfetto.dev): one track per processor, one\n"
      "per link, plus arrival/decision/hedge/retirement instants. --profile\n"
      "prints hot-path counters/timers (and lands them in stream --json).\n"
      "Both are inert: the simulated timeline is bit-identical on or off.\n";
}

/// Parses argv[2..] against `command`'s synopsis plus the global --help
/// (-h) and --log-level. A synopsis `--name` takes a value unless its
/// token closes its bracket (`[--trace]`) or the next token opens another
/// option. An undeclared or repeated option, or one missing its value,
/// throws.
Args parse_args(const Command& command, int argc, char** argv) {
  std::map<std::string, bool> takes_value{{"help", false}, {"log-level", true}};
  std::istringstream in(command.synopsis);
  std::vector<std::string> tokens;
  for (std::string token; in >> token;) tokens.push_back(token);
  const auto option_at = [&](std::size_t i) {
    const std::size_t dashes = tokens[i].find_first_not_of("[(");
    return tokens[i].compare(dashes, 2, "--") == 0 ? dashes + 2
                                                    : std::string::npos;
  };
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::size_t at = option_at(i);
    if (at == std::string::npos || tokens[i] == command.alias) continue;
    const std::size_t end = tokens[i].find_first_of("])", at);
    takes_value[tokens[i].substr(at, end - at)] =
        end == std::string::npos && i + 1 < tokens.size() &&
        option_at(i + 1) == std::string::npos;
  }
  Args args;
  std::vector<std::string> names;
  for (const auto& option : takes_value) {
    args.options[option.first] = std::nullopt;
    names.push_back("--" + option.first);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string token = std::string(argv[i]) == "-h" ? "--help" : argv[i];
    const auto it = util::starts_with(token, "--")
                        ? takes_value.find(token.substr(2))
                        : takes_value.end();
    if (it == takes_value.end()) {
      const std::string match = util::did_you_mean(token, names);
      throw std::invalid_argument(
          "unknown option '" + token + "' for 'aptsim " + command.name + "'" +
          (match.empty() ? "" : " (did you mean '" + match + "'?)"));
    }
    std::optional<std::string>& value = args.options[it->first];
    if (value) throw std::invalid_argument("option " + token + " given twice");
    if (!it->second) {
      value = "1";
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("option " + token + " needs a value");
    }
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string name = argc >= 2 ? argv[1] : "";
    if (name.empty() || name == "--help" || name == "-h") {
      usage();
      return 0;
    }
    for (const Command& command : kCommands) {
      if (name != command.name && name != command.alias) continue;
      const Args args = parse_args(command, argc, argv);
      if (args.has("help")) {
        std::cout << "usage:\n" << command.synopsis;
        return 0;
      }
      // The CLI defaults to info (the library default is warn) so one-shot
      // notices stay visible; --log-level off silences them for scripts.
      util::Logger::instance().set_level(
          util::parse_log_level(args.get("log-level", "info")));
      return command.run(args);
    }
    usage();
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "aptsim: error: " << e.what() << "\n";
    return 1;
  }
}
