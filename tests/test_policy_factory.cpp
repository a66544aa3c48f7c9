#include "core/policy_factory.hpp"

#include <gtest/gtest.h>

namespace apt::core {
namespace {

TEST(PolicyFactory, BuildsEveryBaseline) {
  EXPECT_EQ(make_policy("met")->name(), "MET");
  EXPECT_EQ(make_policy("spn")->name(), "SPN");
  EXPECT_EQ(make_policy("ss")->name(), "SS");
  EXPECT_EQ(make_policy("ag")->name(), "AG");
  EXPECT_EQ(make_policy("olb")->name(), "OLB");
  EXPECT_EQ(make_policy("heft")->name(), "HEFT");
  EXPECT_EQ(make_policy("peft")->name(), "PEFT");
  EXPECT_EQ(make_policy("random")->name(), "Random");
  EXPECT_EQ(make_policy("minmin")->name(), "Min-Min");
  EXPECT_EQ(make_policy("max-min")->name(), "Max-Min");
  EXPECT_EQ(make_policy("sufferage")->name(), "Sufferage");
}

TEST(PolicyFactory, AptDefaultsAndParameters) {
  EXPECT_EQ(make_policy("apt")->name(), "APT(alpha=4.00)");
  EXPECT_EQ(make_policy("apt:2.5")->name(), "APT(alpha=2.50)");
  EXPECT_EQ(make_policy("apt:16")->name(), "APT(alpha=16.00)");
  EXPECT_EQ(make_policy("apt-r")->name(), "APT-R(alpha=4.00)");
  EXPECT_EQ(make_policy("apt-r:8")->name(), "APT-R(alpha=8.00)");
}

TEST(PolicyFactory, IsCaseAndWhitespaceInsensitive) {
  EXPECT_EQ(make_policy(" HEFT ")->name(), "HEFT");
  EXPECT_EQ(make_policy("Apt:4")->name(), "APT(alpha=4.00)");
}

TEST(PolicyFactory, AgVariants) {
  EXPECT_EQ(make_policy("ag:recent")->name(), "AG");
  EXPECT_THROW(make_policy("ag:bogus"), std::invalid_argument);
}

TEST(PolicyFactory, RejectsUnknownOrMalformedSpecs) {
  EXPECT_THROW(make_policy("does-not-exist"), std::invalid_argument);
  EXPECT_THROW(make_policy(""), std::invalid_argument);
  EXPECT_THROW(make_policy("apt:not-a-number"), std::invalid_argument);
  EXPECT_THROW(make_policy("apt:0.5"), std::invalid_argument);  // alpha < 1
}

TEST(PolicyFactory, DynamicAndStaticClassification) {
  EXPECT_TRUE(make_policy("apt")->is_dynamic());
  EXPECT_TRUE(make_policy("met")->is_dynamic());
  EXPECT_TRUE(make_policy("ag")->is_dynamic());
  EXPECT_FALSE(make_policy("heft")->is_dynamic());
  EXPECT_FALSE(make_policy("peft")->is_dynamic());
}

TEST(PolicyFactory, RegistryClassificationMatchesEveryPolicy) {
  // `aptsim policies` and the README print the row's flag; the stream
  // engine trusts the policy's own is_dynamic().
  for (const PolicyInfo& info : policy_registry())
    EXPECT_EQ(info.dynamic, make_policy(info.head)->is_dynamic()) << info.head;
}

TEST(PolicyFactory, PaperPolicySetHasSevenColumns) {
  const auto set = paper_policy_set(4.0);
  ASSERT_EQ(set.size(), 7u);
  EXPECT_EQ(set[0]->name(), "APT(alpha=4.00)");
  EXPECT_EQ(set[1]->name(), "MET");
  EXPECT_EQ(set[6]->name(), "PEFT");
}

TEST(PolicyFactory, KnownSpecsAreNonEmptyAndBuildable) {
  const auto specs = known_policy_specs();
  EXPECT_GE(specs.size(), 10u);
  for (const auto& spec : specs) {
    if (spec.find('<') != std::string::npos) continue;  // parameterised form
    EXPECT_NO_THROW(make_policy(spec)) << spec;
  }
}

}  // namespace
}  // namespace apt::core
