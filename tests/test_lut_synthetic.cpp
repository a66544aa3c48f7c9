// The synthetic platform generator: parameter validation, the exact
// heterogeneity / CCR calibration guarantees, determinism, and CSV
// round-tripping through the existing LookupTable machinery.
#include "lut/synthetic.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "dag/generator.hpp"

namespace apt::lut {
namespace {

TEST(SyntheticLut, ProducesTheRequestedShape) {
  SyntheticLutSpec spec;
  spec.kernel_count = 5;
  spec.sizes_per_kernel = 4;
  const LookupTable table = synthetic_lookup_table(spec);
  EXPECT_EQ(table.size(), 20u);
  const auto kernels = table.kernels();
  ASSERT_EQ(kernels.size(), 5u);
  for (const auto& kernel : kernels) {
    EXPECT_EQ(table.sizes_for(kernel).size(), 4u);
  }
}

TEST(SyntheticLut, HitsTheHeterogeneityTargetExactly) {
  for (const double h : {1.0, 2.0, 16.0, 1e6}) {
    SyntheticLutSpec spec;
    spec.heterogeneity = h;
    spec.seed = 3;
    const LookupTable table = synthetic_lookup_table(spec);
    for (const Entry& e : table.entries()) {
      EXPECT_NEAR(table.heterogeneity(e.kernel, e.data_size), h, h * 1e-12);
    }
    EXPECT_NEAR(geometric_mean_heterogeneity(table), h, h * 1e-9);
  }
}

TEST(SyntheticLut, HitsTheCcrTargetWithinRoundingError) {
  for (const double ccr : {0.1, 1.0, 8.0}) {
    SyntheticLutSpec spec;
    spec.ccr = ccr;
    spec.seed = 5;
    const LookupTable table = synthetic_lookup_table(spec);
    // Calibration rounds each data size to whole elements; at the default
    // 100 ms scale that rounding is ~1e-8 relative.
    EXPECT_NEAR(mean_ccr(table, spec.link_rate_gbps, spec.bytes_per_element),
                ccr, ccr * 1e-6);
  }
}

TEST(SyntheticLut, ZeroCcrStillYieldsUniqueRows) {
  SyntheticLutSpec spec;
  spec.ccr = 0.0;
  spec.sizes_per_kernel = 5;
  const LookupTable table = synthetic_lookup_table(spec);
  EXPECT_EQ(table.size(), spec.kernel_count * 5u);
  EXPECT_LT(mean_ccr(table, spec.link_rate_gbps), 1e-6);
}

TEST(SyntheticLut, SameSpecSameBytes) {
  SyntheticLutSpec spec;
  spec.seed = 42;
  const LookupTable a = synthetic_lookup_table(spec);
  const LookupTable b = synthetic_lookup_table(spec);
  EXPECT_EQ(a.to_csv(), b.to_csv());
  spec.seed = 43;
  EXPECT_NE(a.to_csv(), synthetic_lookup_table(spec).to_csv());
}

TEST(SyntheticLut, RoundTripsThroughCsv) {
  SyntheticLutSpec spec;
  spec.kernel_count = 3;
  const LookupTable table = synthetic_lookup_table(spec);
  const LookupTable reloaded = LookupTable::from_csv(table.to_csv());
  EXPECT_EQ(table.to_csv(), reloaded.to_csv());
}

TEST(SyntheticLut, FeedsTheKernelPoolGenerators) {
  SyntheticLutSpec spec;
  spec.kernel_count = 4;
  spec.sizes_per_kernel = 2;
  const LookupTable table = synthetic_lookup_table(spec);
  const auto pool = dag::KernelPool::from_lookup_table(table);
  const dag::Dag graph = dag::generate(dag::DfgType::Type1, 16, 7, pool);
  for (dag::NodeId i = 0; i < graph.node_count(); ++i) {
    EXPECT_TRUE(
        table.contains(graph.node(i).kernel, graph.node(i).data_size));
  }
}

TEST(SyntheticLut, RejectsOutOfRangeParameters) {
  const auto bad = [](auto mutate) {
    SyntheticLutSpec spec;
    mutate(spec);
    EXPECT_THROW(synthetic_lookup_table(spec), std::invalid_argument);
  };
  bad([](SyntheticLutSpec& s) { s.kernel_count = 0; });
  bad([](SyntheticLutSpec& s) { s.sizes_per_kernel = 0; });
  bad([](SyntheticLutSpec& s) { s.heterogeneity = 0.5; });
  bad([](SyntheticLutSpec& s) { s.ccr = -0.1; });
  bad([](SyntheticLutSpec& s) { s.mean_exec_ms = 0.0; });
  bad([](SyntheticLutSpec& s) { s.spread = 0.9; });
  bad([](SyntheticLutSpec& s) { s.link_rate_gbps = 0.0; });
  bad([](SyntheticLutSpec& s) { s.bytes_per_element = 0.0; });
  EXPECT_THROW(mean_ccr(LookupTable(), 0.0), std::invalid_argument);
}

/// Expects `spec` to be rejected with a message that names `knob`.
void expect_rejected_naming(const SyntheticLutSpec& spec, const char* knob) {
  try {
    synthetic_lookup_table(spec);
    ADD_FAILURE() << knob << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(knob), std::string::npos) << e.what();
  }
}

TEST(SyntheticLut, RejectsNonFiniteKnobsNamingThem) {
  // An infinite ccr or link rate used to overflow the row-size rounding
  // into a garbage size and a makespan of 9e12 ms.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double x : {inf, nan}) {
    SyntheticLutSpec spec;
    spec.heterogeneity = x;
    expect_rejected_naming(spec, "heterogeneity");
    spec = SyntheticLutSpec{};
    spec.ccr = x;
    expect_rejected_naming(spec, "ccr");
    spec = SyntheticLutSpec{};
    spec.mean_exec_ms = x;
    expect_rejected_naming(spec, "mean_exec_ms");
    spec = SyntheticLutSpec{};
    spec.spread = x;
    expect_rejected_naming(spec, "spread");
    spec = SyntheticLutSpec{};
    spec.link_rate_gbps = x;
    expect_rejected_naming(spec, "link_rate_gbps");
    spec = SyntheticLutSpec{};
    spec.bytes_per_element = x;
    expect_rejected_naming(spec, "bytes_per_element");
  }
}

TEST(SyntheticLut, RejectsRowSizesPastExactIntegers) {
  // One row time of exactly 100 ms: the row is ccr x 1e8 elements at the
  // default 4 GB/s and 4 bytes per element, and 2^53 ~ 9.007e15.
  SyntheticLutSpec spec;
  spec.kernel_count = 1;
  spec.sizes_per_kernel = 1;
  spec.heterogeneity = 1.0;
  spec.spread = 1.0;
  spec.ccr = 9e7;
  EXPECT_EQ(synthetic_lookup_table(spec).entries().front().data_size,
            9000000000000000u);
  for (const double ccr : {1e8, 1e300}) {
    spec.ccr = ccr;
    EXPECT_THROW(synthetic_lookup_table(spec), std::invalid_argument) << ccr;
  }
  spec.ccr = 1.0;
  spec.link_rate_gbps = 1e300;
  EXPECT_THROW(synthetic_lookup_table(spec), std::invalid_argument);
}

}  // namespace
}  // namespace apt::lut
