// Open-system streaming study on the real stream engine.
//
// The thesis frames workloads as "an incoming stream of applications" but
// submits each DAG at time zero; the old version of this bench faked
// arrivals by offsetting release times inside a single graph (and rebuilt
// the cost model and policy per graph inside the timing loop, charging
// setup to the measurement). It now drives stream::StreamEngine through
// core::run_stream_plan: Poisson arrivals of whole DAG instances contending
// for one platform, shared cost tables built once, one policy instance per
// cell, swept over a (family × λ × policy) grid with --jobs workers.
//
// --json FILE writes the rows in google-benchmark's output shape (a
// "benchmarks" array with name/real_time/time_unit) so the CI perf gate
// (scripts/bench_gate.py) can diff this file and BENCH_policy_overhead.json
// with the same parser. Row wall-clock times are the gated signal; the
// simulated open-system metrics ride along as extra fields for trajectory
// tracking.
#include "bench_common.hpp"

#include "core/stream_plan.hpp"
#include "obs/trace_sink.hpp"

using namespace apt;

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobs_from_args(argc, argv);
  const std::string json_path = bench::json_path_from_args(argc, argv);

  bench::heading(
      "Open-system streaming — Poisson DAG arrivals on the shared paper "
      "platform");

  // Mean inter-arrival gaps of 50 s down to 2 s against applications whose
  // isolated makespans are tens of seconds: the grid walks the system from
  // a nearly-idle open system into deep saturation.
  const std::vector<double> rates_per_ms = {0.00002, 0.0001, 0.0005};
  const std::vector<std::string> families = {"type1", "layered"};
  const std::vector<std::string> policies = {"apt:4", "met", "spn", "ag"};

  const core::BatchRunner runner(jobs);
  util::TablePrinter table({"family", "gap ms", "policy", "apps", "thrpt/s",
                            "flow avg s", "slowdown", "util %"});
  struct Row {
    std::string name;
    double wall_ms;
    std::vector<core::StreamCellResult> cells;
  };
  std::vector<Row> rows;

  const bench::Stopwatch total;
  for (const std::string& family : families) {
    for (double rate : rates_per_ms) {
      core::StreamPlan plan;
      plan.families = {family};
      plan.rates_per_ms = {rate};
      plan.policy_specs = policies;
      plan.kernels = 46;
      plan.horizon_ms = 200000.0;  // 200 s of admissions
      plan.warmup_ms = 20000.0;
      plan.base_seed = 2024;

      const bench::Stopwatch row_clock;
      const core::StreamBatchResult result =
          core::run_stream_plan(plan, runner);
      const double wall = row_clock.elapsed_ms();

      for (const core::StreamCellResult& cell : result.cells) {
        const sim::StreamMetrics& m = cell.metrics;
        table.add_row({family, util::format_double(1.0 / rate, 0),
                       cell.policy_name, std::to_string(m.apps_measured),
                       util::format_double(m.throughput_apps_per_s, 3),
                       util::format_double(m.flow_ms.avg / 1000.0, 2),
                       util::format_double(m.slowdown.avg, 2),
                       util::format_double(m.avg_utilization * 100.0, 1)});
      }
      rows.push_back(Row{"stream/" + family + "/rate=" +
                             util::format_double(rate, 5),
                         wall, result.cells});
    }
  }
  // Burst tiers: 10× and 100× the densest sustained rate. A fixed-size
  // burst (admission cap, no horizon/warmup) keeps the row bounded — at
  // these rates a 200 s horizon would admit thousands of applications —
  // while still pushing the hot path deep into saturation: the incremental
  // max-min re-solve, the SoA slot slabs, and per-admission cost rows are
  // what keep these rows tractable.
  const std::vector<double> burst_rates_per_ms = {0.005, 0.05};
  for (const std::string& family : families) {
    for (double rate : burst_rates_per_ms) {
      core::StreamPlan plan;
      plan.families = {family};
      plan.rates_per_ms = {rate};
      plan.policy_specs = policies;
      plan.kernels = 46;
      plan.max_apps = 120;  // burst size bounds the run, not a horizon
      plan.horizon_ms = 0.0;
      plan.warmup_ms = 0.0;
      plan.base_seed = 2024;

      const bench::Stopwatch row_clock;
      const core::StreamBatchResult result =
          core::run_stream_plan(plan, runner);
      const double wall = row_clock.elapsed_ms();

      for (const core::StreamCellResult& cell : result.cells) {
        const sim::StreamMetrics& m = cell.metrics;
        table.add_row({family, util::format_double(1.0 / rate, 0),
                       cell.policy_name, std::to_string(m.apps_measured),
                       util::format_double(m.throughput_apps_per_s, 3),
                       util::format_double(m.flow_ms.avg / 1000.0, 2),
                       util::format_double(m.slowdown.avg, 2),
                       util::format_double(m.avg_utilization * 100.0, 1)});
      }
      rows.push_back(Row{"stream/" + family + "/rate=" +
                             util::format_double(rate, 5),
                         wall, result.cells});
    }
  }
  // Noisy tier: the same 10× burst under heavy-tailed service-time noise
  // (sigma 0.25 lognormal + 5% of kernels inflated 20×), hedging off vs
  // on. This prices the noise layer itself (per-kernel multiplier draws)
  // and the hedging machinery (rolling-quantile window, hedge-check
  // events, replica races) on the hot path, and tracks the p99 flow the
  // hedge exists to cut.
  for (const std::string& family : families) {
    for (const bool hedging : {false, true}) {
      core::StreamPlan plan;
      plan.families = {family};
      plan.rates_per_ms = {0.005};
      plan.policy_specs = policies;
      plan.kernels = 46;
      plan.max_apps = 120;
      plan.horizon_ms = 0.0;
      plan.warmup_ms = 0.0;
      plan.base_seed = 2024;
      plan.noise.sigma = 0.25;
      plan.noise.heavy_tail_prob = 0.05;
      plan.noise.heavy_tail_multiplier = 20.0;
      plan.hedging.enabled = hedging;

      const bench::Stopwatch row_clock;
      const core::StreamBatchResult result =
          core::run_stream_plan(plan, runner);
      const double wall = row_clock.elapsed_ms();

      for (const core::StreamCellResult& cell : result.cells) {
        const sim::StreamMetrics& m = cell.metrics;
        table.add_row({family + (hedging ? " noisy+hedge" : " noisy"),
                       util::format_double(1.0 / 0.005, 0),
                       cell.policy_name, std::to_string(m.apps_measured),
                       util::format_double(m.throughput_apps_per_s, 3),
                       util::format_double(m.flow_ms.avg / 1000.0, 2),
                       util::format_double(m.slowdown.avg, 2),
                       util::format_double(m.avg_utilization * 100.0, 1)});
      }
      rows.push_back(Row{std::string("stream/noisy/") + family +
                             "/hedging=" + (hedging ? "on" : "off"),
                         wall, result.cells});
    }
  }
  // Traced tier: the 10× type1 burst again with the Chrome-trace sink and
  // the profiling registry attached. Prices the observability layer's
  // enabled path (span rendering at emission, counter/timer bumps); the
  // gated rows above all run with sink/profile null, so any cost leaking
  // into the disabled path shows up there instead.
  {
    core::StreamPlan plan;
    plan.families = {"type1"};
    plan.rates_per_ms = {0.005};
    plan.policy_specs = policies;
    plan.kernels = 46;
    plan.max_apps = 120;
    plan.horizon_ms = 0.0;
    plan.warmup_ms = 0.0;
    plan.base_seed = 2024;
    plan.profile = true;
    obs::ChromeTraceWriter writer{sim::System(plan.base_system)};
    plan.trace_sink = &writer;

    const bench::Stopwatch row_clock;
    const core::StreamBatchResult result = core::run_stream_plan(plan, runner);
    const double wall = row_clock.elapsed_ms();

    for (const core::StreamCellResult& cell : result.cells) {
      const sim::StreamMetrics& m = cell.metrics;
      table.add_row({"type1 traced", util::format_double(1.0 / 0.005, 0),
                     cell.policy_name, std::to_string(m.apps_measured),
                     util::format_double(m.throughput_apps_per_s, 3),
                     util::format_double(m.flow_ms.avg / 1000.0, 2),
                     util::format_double(m.slowdown.avg, 2),
                     util::format_double(m.avg_utilization * 100.0, 1)});
    }
    rows.push_back(Row{"stream/traced/type1/rate=0.00500", wall,
                       result.cells});
  }
  const double total_ms = total.elapsed_ms();
  std::cout << table.to_string();
  bench::report_wall_clock(total_ms, jobs);
  bench::note(
      "Reading: at 50 s gaps the open system is lightly loaded — flow "
      "approaches the isolated makespan and slowdown (flow over the "
      "critical-path/area lower bound) sits near its floor. As gaps shrink "
      "toward the apps' service times, backlog builds and the policies "
      "separate: APT keeps kernels off the pathologically slow processor "
      "choices, so its flow/slowdown degrade latest. Static planners are "
      "absent by construction — an open system never shows them the whole "
      "DAG.");

  if (!json_path.empty()) {
    bench::TrajectoryJson trajectory("bench_streaming", jobs);
    for (const Row& row : rows) {
      std::vector<std::pair<std::string, double>> extras;
      for (const core::StreamCellResult& cell : row.cells) {
        extras.emplace_back("flow_avg_ms/" + cell.policy_name,
                            cell.metrics.flow_ms.avg);
        extras.emplace_back("slowdown_avg/" + cell.policy_name,
                            cell.metrics.slowdown.avg);
        if (cell.metrics.hedges_launched > 0 ||
            row.name.find("/noisy/") != std::string::npos) {
          extras.emplace_back("flow_p99_ms/" + cell.policy_name,
                              cell.metrics.flow_ms.p99);
          extras.emplace_back(
              "hedges_launched/" + cell.policy_name,
              static_cast<double>(cell.metrics.hedges_launched));
          extras.emplace_back(
              "hedge_wasted_ms/" + cell.policy_name,
              cell.metrics.hedge_wasted_ms);
        }
      }
      trajectory.add(row.name, row.wall_ms, extras);
    }
    // One whole-grid entry so the gate sees an aggregate even if the grid
    // changes shape.
    trajectory.add("stream/total", total_ms);
    if (!trajectory.write(json_path)) return 1;
  }
  return 0;
}
