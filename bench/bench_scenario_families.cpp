// Scenario-family sweep bench: schedules every registered workload family on
// a synthetic platform (CCR 0.5, heterogeneity 4) with a representative
// policy set, reporting per-family average makespans and wall-clock.
//
//   bench_scenario_families [--jobs N]
#include "bench_common.hpp"
#include "core/batch.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace apt;

struct FamilyRow {
  std::string family;
  double wall_ms = 0.0;
  std::vector<double> avg_makespan_ms;  // one per policy column
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t jobs = bench::jobs_from_args(argc, argv);
  const std::vector<std::string> policies = {"apt:4", "met", "heft", "peft"};

  bench::heading(
      "Scenario families x {APT(4), MET, HEFT, PEFT}, synthetic platform "
      "(ccr 0.5, hetero 4)");
  bench::note(
      "6 seeded graphs per family (24/46/73 kernels), rates 4 GB/s; the\n"
      "per-family wall-clock tracks generator + scheduling throughput.");

  const core::BatchRunner runner(jobs);
  std::vector<FamilyRow> rows;
  bench::Stopwatch total;
  for (const std::string& name : scenario::family_names()) {
    core::ScenarioSweepSpec spec;
    spec.families = {name};
    spec.graphs_per_family = 6;
    spec.kernel_counts = {24, 46, 73};
    spec.graph_seed = 7;
    lut::SyntheticLutSpec platform;
    platform.ccr = 0.5;
    platform.heterogeneity = 4.0;
    platform.seed = 7;
    spec.synthetic = platform;

    const core::ExperimentPlan plan =
        core::make_scenario_plan(spec, policies, {4.0});
    bench::Stopwatch watch;
    const core::BatchResult result = runner.run(plan);
    FamilyRow row;
    row.family = name;
    row.wall_ms = watch.elapsed_ms();
    const core::Grid grid = result.grid(dag::DfgType::Type1);
    for (std::size_t p = 0; p < grid.policy_count(); ++p)
      row.avg_makespan_ms.push_back(grid.avg_makespan_ms(p));
    rows.push_back(std::move(row));
  }
  const double total_ms = total.elapsed_ms();

  std::vector<std::string> header = {"family"};
  for (const auto& p : policies) header.push_back("avg " + p + " ms");
  header.push_back("wall ms");
  util::TablePrinter table(header);
  for (const FamilyRow& row : rows) {
    std::vector<std::string> cells = {row.family};
    for (double ms : row.avg_makespan_ms)
      cells.push_back(util::format_double(ms, 1));
    cells.push_back(util::format_double(row.wall_ms, 2));
    table.add_row(std::move(cells));
  }
  std::cout << table.to_string();
  bench::report_wall_clock(total_ms, jobs);
  return 0;
}
