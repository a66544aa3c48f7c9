// ChromeTraceWriter: Chrome-trace/Perfetto JSON structure, the golden
// byte-for-byte artifact of a fixed-seed run, the cap/decimation knobs, and
// hedge-race span roles.
#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/policy_factory.hpp"
#include "dag/generator.hpp"
#include "lut/paper_data.hpp"
#include "net/topology.hpp"
#include "obs/profile.hpp"
#include "sim/engine.hpp"
#include "test_helpers.hpp"

#ifndef APTSIM_GOLDEN_DIR
#define APTSIM_GOLDEN_DIR "tests/golden"
#endif

namespace apt {
namespace {

sim::System mesh_system() {
  sim::SystemConfig cfg = sim::SystemConfig::paper_default();
  cfg.topology = net::parse_topology_spec("mesh:2x2");
  return sim::System(cfg);
}

/// The fixed-seed contended run every test here traces: type1, 24 kernels,
/// seed 3, apt:4 on the paper platform over a routed 2x2 mesh.
sim::SimResult traced_run(obs::TraceSink* sink,
                          obs::ChromeTraceWriter::Options options = {}) {
  (void)options;
  const lut::LookupTable table = lut::paper_lookup_table();
  const dag::Dag dag = dag::generate(dag::DfgType::Type1, 24, 3,
                                     dag::KernelPool::from_lookup_table(table));
  const sim::System system = mesh_system();
  const sim::LutCostModel cost(table, system);
  const auto policy = core::make_policy("apt:4");
  sim::EngineOptions engine_options;
  engine_options.sink = sink;
  sim::Engine engine(dag, system, cost, engine_options);
  return engine.run(*policy);
}

std::string render(const obs::ChromeTraceWriter& writer) {
  std::ostringstream out;
  writer.write(out);
  return out.str();
}

TEST(ChromeTrace, EmitsAllThreeTrackFamilies) {
  obs::ChromeTraceWriter writer{mesh_system()};
  traced_run(&writer);
  const std::string json = render(writer);

  // Process (track-group) names.
  EXPECT_NE(json.find("\"processors\""), std::string::npos);
  EXPECT_NE(json.find("\"links\""), std::string::npos);
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  // Per-processor and per-link threads.
  EXPECT_NE(json.find("\"CPU0\""), std::string::npos);
  EXPECT_NE(json.find("\"GPU0\""), std::string::npos);
  EXPECT_NE(json.find("\"FPGA0\""), std::string::npos);
  EXPECT_NE(json.find("\"M0,0>M0,1\""), std::string::npos);
  // Span args carried by the kernel/transfer events.
  EXPECT_NE(json.find("\"route\""), std::string::npos);
  EXPECT_NE(json.find("\"bottleneck\""), std::string::npos);
  EXPECT_NE(json.find("\"noise_mult\""), std::string::npos);
  // A closed run has decisions but no stream lifecycle instants.
  EXPECT_NE(json.find("\"decision\""), std::string::npos);
  EXPECT_EQ(json.find("\"arrival\""), std::string::npos);
}

TEST(ChromeTrace, DeterministicAcrossRuns) {
  obs::ChromeTraceWriter a{mesh_system()};
  obs::ChromeTraceWriter b{mesh_system()};
  traced_run(&a);
  traced_run(&b);
  EXPECT_EQ(render(a), render(b));
}

TEST(ChromeTrace, GoldenRunTraceBytes) {
  // Freezes the exact trace of the fixed-seed run. A diff here means either
  // the simulated timeline moved (the golden regression suite will say so
  // too) or the trace encoding changed — if intentional, regenerate with
  // this one command:
  //   build/aptsim run --policy apt:4 --type 1 --kernels 24 --seed 3
  //     --topology mesh:2x2 --trace-out tests/golden/run_trace.json
  obs::ChromeTraceWriter writer{mesh_system()};
  traced_run(&writer);

  const std::string path = std::string(APTSIM_GOLDEN_DIR) + "/run_trace.json";
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(render(writer), golden.str());
}

TEST(ChromeTrace, EventCapDropsButKeepsMetadata) {
  obs::ChromeTraceWriter::Options options;
  options.max_events = 5;
  obs::ChromeTraceWriter writer{mesh_system(), options};
  traced_run(&writer);

  EXPECT_EQ(writer.event_count(), 5u);
  EXPECT_GT(writer.dropped(), 0u);
  const std::string json = render(writer);
  // Track names survive the cap, so the (truncated) trace still renders
  // with named rows in the viewer.
  EXPECT_NE(json.find("\"processors\""), std::string::npos);
  EXPECT_NE(json.find("\"CPU0\""), std::string::npos);
}

TEST(ChromeTrace, DecimationKeepsEveryKth) {
  obs::ChromeTraceWriter full{mesh_system()};
  obs::ChromeTraceWriter::Options options;
  options.every = 2;
  obs::ChromeTraceWriter half{mesh_system(), options};
  traced_run(&full);
  traced_run(&half);

  EXPECT_GT(half.dropped(), 0u);
  EXPECT_LT(half.event_count(), full.event_count());
  // Per-category stride: at least half of each category survives, so the
  // total can't fall below half minus the three category round-downs.
  EXPECT_GE(half.event_count(), full.event_count() / 2 - 3);
}

TEST(ChromeTrace, TraceJsonShapeIsWellFormed) {
  obs::ChromeTraceWriter writer{mesh_system()};
  traced_run(&writer);
  const std::string json = render(writer);

  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity without a parser.
  long braces = 0;
  long brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (c == '"' && (i == 0 || json[i - 1] != '\\')) in_string = !in_string;
    if (in_string) continue;
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(ChromeTrace, HedgeRaceEmitsLaunchAndCancelledLoserSpan) {
  // Uncontended run with aggressive noise + hedging so races actually
  // happen; the trace must carry the launch instants and flag the losing
  // attempts as cancelled.
  const lut::LookupTable table = lut::paper_lookup_table();
  const dag::Dag dag = dag::generate(dag::DfgType::Type1, 24, 5,
                                     dag::KernelPool::from_lookup_table(table));
  const sim::System system = test::paper_system();
  const sim::LutCostModel cost(table, system);
  const auto policy = core::make_policy("apt:4");

  sim::EngineOptions options;
  options.noise.sigma = 0.3;
  options.noise.heavy_tail_prob = 0.2;
  options.noise.heavy_tail_multiplier = 30.0;
  options.noise.seed = 7;
  options.hedging.enabled = true;
  options.hedging.quantile = 0.5;
  options.hedging.threshold_factor = 1.2;
  options.hedging.min_samples = 4;
  obs::ChromeTraceWriter writer{system};
  options.sink = &writer;
  sim::Engine engine(dag, system, cost, options);
  const sim::SimResult result = engine.run(*policy);
  ASSERT_FALSE(result.hedges.empty()) << "fixture no longer races";

  const std::string json = render(writer);
  EXPECT_NE(json.find("\"hedge_launch\""), std::string::npos);
  EXPECT_NE(json.find(":cancelled\""), std::string::npos);
  EXPECT_NE(json.find("\"role\":\"replica\""), std::string::npos);
}

}  // namespace
}  // namespace apt
