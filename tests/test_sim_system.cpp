#include "sim/system.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace apt::sim {
namespace {

TEST(Interconnect, UniformRateEverywhere) {
  Interconnect net(3, 4.0);
  for (ProcId a = 0; a < 3; ++a) {
    for (ProcId b = 0; b < 3; ++b) EXPECT_DOUBLE_EQ(net.rate_gbps(a, b), 4.0);
  }
}

TEST(Interconnect, SameProcessorTransferIsFree) {
  Interconnect net(3, 4.0);
  EXPECT_DOUBLE_EQ(net.transfer_time_ms(1e9, 1, 1), 0.0);
}

TEST(Interconnect, TransferTimeMatchesRate) {
  Interconnect net(2, 4.0);
  // 4 GB/s == 4e6 bytes per ms; 8 MB should take 2 ms.
  EXPECT_DOUBLE_EQ(net.transfer_time_ms(8e6, 0, 1), 2.0);
  Interconnect fast(2, 8.0);
  EXPECT_DOUBLE_EQ(fast.transfer_time_ms(8e6, 0, 1), 1.0);
}

TEST(Interconnect, PerPairOverride) {
  Interconnect net(3, 4.0);
  net.set_rate_gbps(0, 2, 16.0);
  EXPECT_DOUBLE_EQ(net.rate_gbps(0, 2), 16.0);
  EXPECT_DOUBLE_EQ(net.rate_gbps(2, 0), 4.0);  // directed
  EXPECT_DOUBLE_EQ(net.transfer_time_ms(16e6, 0, 2), 1.0);
}

TEST(Interconnect, Validation) {
  EXPECT_THROW(Interconnect(0, 4.0), std::invalid_argument);
  EXPECT_THROW(Interconnect(2, 0.0), std::invalid_argument);
  Interconnect net(2, 4.0);
  EXPECT_THROW(net.set_rate_gbps(0, 1, -1.0), std::invalid_argument);
  EXPECT_THROW(net.rate_gbps(0, 7), std::out_of_range);
  EXPECT_THROW(net.transfer_time_ms(-5.0, 0, 1), std::invalid_argument);
}

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

TEST(System, InterconnectUsesConfiguredRate) {
  const System sys(SystemConfig::paper_default(8.0));
  EXPECT_DOUBLE_EQ(sys.interconnect().rate_gbps(0, 2), 8.0);
}

}  // namespace
}  // namespace apt::sim
