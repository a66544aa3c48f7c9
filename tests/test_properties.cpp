// Property-based suite: every policy must produce a valid schedule on a
// broad parameterised sweep of workloads and systems, and a family of
// cross-policy invariants must hold on each instance.
#include <gtest/gtest.h>

#include <memory>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "test_helpers.hpp"

namespace apt {
namespace {

struct PropertyCase {
  std::string policy_spec;
  dag::DfgType type;
  std::size_t kernels;
  std::uint64_t seed;
  double rate_gbps;

  friend std::ostream& operator<<(std::ostream& os, const PropertyCase& c) {
    return os << c.policy_spec << "_" << dag::to_string(c.type) << "_n"
              << c.kernels << "_s" << c.seed << "_r" << c.rate_gbps;
  }
};

class PolicyProperty : public ::testing::TestWithParam<PropertyCase> {};

std::vector<PropertyCase> make_cases() {
  const std::vector<std::string> specs = {"apt:1.5", "apt:4",  "apt:16",
                                          "apt-r:4", "apt-ranked:4", "met",    "spn",
                                          "ss",      "ag",     "ag:recent",
                                          "olb",     "random", "minmin",
                                          "maxmin",  "sufferage", "heft",
                                          "peft"};
  std::vector<PropertyCase> cases;
  for (const auto& spec : specs) {
    for (const dag::DfgType type : {dag::DfgType::Type1, dag::DfgType::Type2}) {
      for (const auto& [n, seed, rate] :
           std::vector<std::tuple<std::size_t, std::uint64_t, double>>{
               {16, 11, 4.0}, {46, 12, 4.0}, {73, 13, 8.0}}) {
        cases.push_back({spec, type, n, seed, rate});
      }
    }
  }
  return cases;
}

TEST_P(PolicyProperty, ProducesAValidSchedule) {
  const PropertyCase& c = GetParam();
  const dag::Dag graph =
      dag::generate(c.type, c.kernels, c.seed, dag::KernelPool::paper_pool());
  const sim::System sys = test::paper_system(c.rate_gbps);
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  const auto policy = core::make_policy(c.policy_spec);

  const sim::SimResult result =
      test::run_and_validate(*policy, graph, sys, cost);

  // Conservation: every processor's breakdown sums to the makespan and all
  // kernels are accounted for.
  const sim::SimMetrics m = sim::compute_metrics(graph, sys, result);
  std::size_t placed = 0;
  for (const auto& p : m.per_proc) {
    placed += p.kernel_count;
    EXPECT_NEAR(p.compute_ms + p.transfer_ms + p.idle_ms, m.makespan, 1e-6);
    EXPECT_GE(p.idle_ms, -1e-6);
    EXPECT_GE(p.transfer_ms, -1e-12);
  }
  EXPECT_EQ(placed, graph.node_count());

  // λ accounting: total is the sum of non-negative per-kernel delays.
  EXPECT_GE(m.lambda.total_ms, -1e-9);
  EXPECT_LE(m.lambda.occurrences, graph.node_count());

  // Only APT-family policies may mark alternatives.
  if (c.policy_spec.rfind("apt", 0) != 0) {
    EXPECT_EQ(m.alternative_count, 0u) << c.policy_spec;
  }
}

TEST_P(PolicyProperty, IsDeterministic) {
  const PropertyCase& c = GetParam();
  const dag::Dag graph =
      dag::generate(c.type, c.kernels, c.seed, dag::KernelPool::paper_pool());
  const sim::System sys = test::paper_system(c.rate_gbps);
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);

  const auto p1 = core::make_policy(c.policy_spec);
  const auto p2 = core::make_policy(c.policy_spec);
  sim::Engine e1(graph, sys, cost);
  sim::Engine e2(graph, sys, cost);
  const auto r1 = e1.run(*p1);
  const auto r2 = e2.run(*p2);
  ASSERT_EQ(r1.schedule.size(), r2.schedule.size());
  EXPECT_DOUBLE_EQ(r1.makespan, r2.makespan);
  for (std::size_t i = 0; i < r1.schedule.size(); ++i) {
    EXPECT_EQ(r1.schedule[i].proc, r2.schedule[i].proc);
    EXPECT_DOUBLE_EQ(r1.schedule[i].exec_start, r2.schedule[i].exec_start);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPoliciesAllWorkloads, PolicyProperty,
                         ::testing::ValuesIn(make_cases()),
                         [](const ::testing::TestParamInfo<PropertyCase>& i) {
                           std::string name;
                           std::ostringstream os;
                           os << i.param;
                           for (char ch : os.str()) {
                             name += std::isalnum(
                                         static_cast<unsigned char>(ch))
                                         ? ch
                                         : '_';
                           }
                           return name;
                         });

// --- Cross-policy invariants on shared instances --------------------------------

class CrossPolicy : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrossPolicy, MetMakespanIsNeverBeatenByWaitingMore) {
  // APT with alpha=1 equals MET on the paper LUT (strict time ordering).
  const std::size_t idx = GetParam();
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type1, idx);
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  const auto apt1 = core::make_policy("apt:1");
  const auto met = core::make_policy("met");
  sim::Engine e1(graph, sys, cost);
  sim::Engine e2(graph, sys, cost);
  EXPECT_DOUBLE_EQ(e1.run(*apt1).makespan, e2.run(*met).makespan);
}

TEST_P(CrossPolicy, EveryPolicyRespectsTheCriticalPathBound) {
  const std::size_t idx = GetParam();
  const dag::Dag graph = dag::paper_graph(dag::DfgType::Type2, idx);
  const sim::System sys = test::paper_system();
  const sim::LutCostModel cost(lut::paper_lookup_table(), sys);
  const double bound = sim::critical_path_lower_bound_ms(graph, sys, cost);
  for (const char* spec : {"apt:4", "met", "spn", "ss", "ag", "heft", "peft"}) {
    const auto policy = core::make_policy(spec);
    sim::Engine engine(graph, sys, cost);
    EXPECT_GE(engine.run(*policy).makespan + 1e-9, bound) << spec;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperExperiments, CrossPolicy,
                         ::testing::Range<std::size_t>(0, 5));

}  // namespace
}  // namespace apt
