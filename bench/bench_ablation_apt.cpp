// Ablation bench (ours, not in the thesis): isolates the design choices
// DESIGN.md calls out.
//
//  1. transfer-aware threshold  — APT's Eq. 8 comparison includes the input
//     transfer time; the ablation drops it.
//  2. remaining-time refinement — the thesis's future-work extension
//     (APT-R) versus plain APT.
//  3. queue-based AG estimators — sum-of-queued (deterministic) versus the
//     Eq.-2 recent-average.
//  4. alpha sensitivity of the extra baselines (OLB/Random floor).
#include "bench_common.hpp"

#include "core/apt.hpp"
#include "core/runner.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"

namespace {

double avg_makespan(const std::string& spec, apt::dag::DfgType type,
                    double rate = 4.0) {
  const auto cells = apt::core::run_policy_over(
      spec, apt::dag::paper_workload(type), rate);
  double sum = 0.0;
  for (const auto& c : cells) sum += c.makespan_ms;
  return sum / static_cast<double>(cells.size());
}

double avg_makespan_custom(apt::sim::Policy& policy, apt::dag::DfgType type) {
  const apt::sim::System system(apt::sim::SystemConfig::paper_default(4.0));
  const auto table = apt::lut::paper_lookup_table();
  double sum = 0.0;
  const auto graphs = apt::dag::paper_workload(type);
  for (const auto& graph : graphs)
    sum += apt::core::run_policy(policy, graph, system, table)
               .metrics.makespan;
  return sum / static_cast<double>(graphs.size());
}

}  // namespace

int main() {
  using namespace apt;

  bench::heading("Ablation 1 — transfer-aware threshold (alpha = 4)");
  {
    util::TablePrinter t({"Variant", "Type-1 avg (ms)", "Type-2 avg (ms)"});
    core::Apt aware(core::AptOptions{4.0, true, false});
    core::Apt blind(core::AptOptions{4.0, false, false});
    t.add_row({"APT transfer-aware (paper)",
               util::format_double(avg_makespan_custom(aware,
                                                       dag::DfgType::Type1), 0),
               util::format_double(avg_makespan_custom(aware,
                                                       dag::DfgType::Type2), 0)});
    t.add_row({"APT transfer-blind",
               util::format_double(avg_makespan_custom(blind,
                                                       dag::DfgType::Type1), 0),
               util::format_double(avg_makespan_custom(blind,
                                                       dag::DfgType::Type2), 0)});
    std::cout << t.to_string();
    bench::note("Expectation: near-identical on Type-1 (no transfers before "
                "the sink) and a visible effect on Type-2.");
  }

  bench::heading("Ablation 2 — remaining-time refinement (APT-R vs APT)");
  {
    util::TablePrinter t({"alpha", "APT T1 (ms)", "APT-R T1 (ms)",
                          "APT T2 (ms)", "APT-R T2 (ms)"});
    for (double alpha : {2.0, 4.0, 8.0}) {
      const std::string a = util::format_double(alpha, 1);
      t.add_row({a,
                 util::format_double(
                     avg_makespan("apt:" + a, dag::DfgType::Type1), 0),
                 util::format_double(
                     avg_makespan("apt-r:" + a, dag::DfgType::Type1), 0),
                 util::format_double(
                     avg_makespan("apt:" + a, dag::DfgType::Type2), 0),
                 util::format_double(
                     avg_makespan("apt-r:" + a, dag::DfgType::Type2), 0)});
    }
    std::cout << t.to_string();
    bench::note("Finding: the future-work refinement is NOT a free win — "
                "its wait estimate ignores contention from other kernels "
                "waiting on the same p_min.");
  }

  bench::heading(
      "Ablation 2b — rank-ordered ready set (APT-Ranked, our extension)");
  {
    util::TablePrinter t({"Variant", "Type-1 avg (ms)", "Type-2 avg (ms)"});
    for (const char* spec : {"apt:4", "apt-ranked:4", "heft"}) {
      t.add_row({spec,
                 util::format_double(avg_makespan(spec, dag::DfgType::Type1), 0),
                 util::format_double(avg_makespan(spec, dag::DfgType::Type2), 0)});
    }
    std::cout << t.to_string();
    bench::note("Finding: serving contested processors to the highest "
                "HEFT-rank ready kernel (instead of FIFO) gives a small but "
                "consistent improvement (~1-2% on average, much larger on "
                "individual dependency-rich graphs) — critical chains stop "
                "queueing behind bulk work, at the price of needing the "
                "whole DAG for the rank pre-pass.");
  }

  bench::heading("Ablation 3 — AG queue-delay estimators");
  {
    util::TablePrinter t({"Estimator", "Type-1 avg (ms)", "Type-2 avg (ms)"});
    t.add_row({"sum-of-queued (deterministic)",
               util::format_double(avg_makespan("ag", dag::DfgType::Type1), 0),
               util::format_double(avg_makespan("ag", dag::DfgType::Type2), 0)});
    t.add_row({"recent-average (Eq. 2)",
               util::format_double(
                   avg_makespan("ag:recent", dag::DfgType::Type1), 0),
               util::format_double(
                   avg_makespan("ag:recent", dag::DfgType::Type2), 0)});
    std::cout << t.to_string();
  }

  bench::heading("Ablation 4 — sanity floor (OLB / Random)");
  {
    util::TablePrinter t({"Policy", "Type-1 avg (ms)", "Type-2 avg (ms)"});
    for (const char* spec : {"apt:4", "met", "olb", "random"}) {
      t.add_row({spec,
                 util::format_double(avg_makespan(spec, dag::DfgType::Type1), 0),
                 util::format_double(avg_makespan(spec, dag::DfgType::Type2), 0)});
    }
    std::cout << t.to_string();
    bench::note("Expectation: APT well below the exec-time-blind floor.");
  }
  return 0;
}
