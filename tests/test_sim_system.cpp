#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace apt::sim {
namespace {

TEST(SystemConfig, PaperDefaultIsCpuGpuFpga) {
  const SystemConfig cfg = SystemConfig::paper_default();
  ASSERT_EQ(cfg.processors.size(), 3u);
  EXPECT_EQ(cfg.processors[0], lut::ProcType::CPU);
  EXPECT_EQ(cfg.processors[1], lut::ProcType::GPU);
  EXPECT_EQ(cfg.processors[2], lut::ProcType::FPGA);
  EXPECT_DOUBLE_EQ(cfg.link_rate_gbps, 4.0);
  EXPECT_DOUBLE_EQ(cfg.bytes_per_element, 4.0);
  EXPECT_DOUBLE_EQ(cfg.decision_overhead_ms, 0.0);
  EXPECT_DOUBLE_EQ(cfg.dispatch_overhead_ms, 0.0);
}

TEST(System, NamesInstancesPerCategory) {
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::CPU, lut::ProcType::GPU,
                    lut::ProcType::GPU, lut::ProcType::FPGA};
  const System sys(cfg);
  EXPECT_EQ(sys.proc_count(), 4u);
  EXPECT_EQ(sys.processor(0).name, "CPU0");
  EXPECT_EQ(sys.processor(1).name, "GPU0");
  EXPECT_EQ(sys.processor(2).name, "GPU1");
  EXPECT_EQ(sys.processor(3).name, "FPGA0");
  EXPECT_EQ(sys.processor(2).id, 2u);
}

TEST(System, CountsAndInstanceLookup) {
  SystemConfig cfg;
  cfg.processors = {lut::ProcType::GPU, lut::ProcType::CPU,
                    lut::ProcType::GPU};
  const System sys(cfg);
  EXPECT_EQ(sys.count_of(lut::ProcType::GPU), 2u);
  EXPECT_EQ(sys.count_of(lut::ProcType::CPU), 1u);
  EXPECT_EQ(sys.count_of(lut::ProcType::FPGA), 0u);
  EXPECT_EQ(sys.instances_of(lut::ProcType::GPU),
            (std::vector<ProcId>{0, 2}));
}

TEST(System, RejectsBadConfig) {
  SystemConfig empty;
  EXPECT_THROW(System{empty}, std::invalid_argument);

  SystemConfig bad_bytes = SystemConfig::paper_default();
  bad_bytes.bytes_per_element = 0.0;
  EXPECT_THROW(System{bad_bytes}, std::invalid_argument);
  bad_bytes.bytes_per_element = std::numeric_limits<double>::infinity();
  EXPECT_THROW(System{bad_bytes}, std::invalid_argument);

  SystemConfig bad_overhead = SystemConfig::paper_default();
  bad_overhead.decision_overhead_ms = -1.0;
  EXPECT_THROW(System{bad_overhead}, std::invalid_argument);
}

TEST(System, RejectsALinkRateThatIsNotFiniteAndPositive) {
  // Every LUT transfer divides its payload by the rate: an infinite rate
  // used to pass and make every transfer free.
  for (const double rate : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW(System{SystemConfig::paper_default(rate)},
                 std::invalid_argument)
        << rate;
    // Also on a contended topology, whose default bandwidth is the rate.
    SystemConfig mesh = SystemConfig::paper_default(rate);
    mesh.topology = net::parse_topology_spec("mesh:2x2");
    try {
      const System sys(mesh);
      ADD_FAILURE() << "accepted link rate " << rate;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(),
                   "System: link_rate_gbps must be finite and positive");
    }
  }
  EXPECT_NO_THROW(System{SystemConfig::paper_default(1e-3)});
}

}  // namespace
}  // namespace apt::sim
