// util::PodArray: the grow-only, realloc-grown array behind the event
// core's slot- and edge-indexed tables.
#include "util/pod_array.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace apt::util {
namespace {

struct Wide {
  std::uint64_t id = 0;
  double value = -1.0;
  std::uint32_t tag = 7;
};

// Growing past 256 KB takes glibc's mmap/mremap path (with the default
// threshold, from 128 KB); every element written before a growth must read
// back the same after it, and each new element is a copy of the fill.
TEST(PodArray, ContentsSurviveGrowthPastTheMmapThreshold) {
  PodArray<Wide> a;
  std::size_t written = 0;
  for (std::size_t n = 1; n * sizeof(Wide) < (1u << 20); n = n * 3 / 2 + 1) {
    a.resize(n, Wide{0, 0.5, 3});
    for (std::size_t i = written; i < n; ++i) {
      ASSERT_EQ(a[i].value, 0.5) << i;
      ASSERT_EQ(a[i].tag, 3u) << i;
      a[i] = Wide{i, static_cast<double>(i) * 0.25, 9};
    }
    written = n;
  }
  ASSERT_GT(a.size() * sizeof(Wide), 256u * 1024u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, i);
    ASSERT_EQ(a[i].value, static_cast<double>(i) * 0.25);
    ASSERT_EQ(a[i].tag, 9u);
  }
  EXPECT_EQ(a.data(), &a[0]);
}

TEST(PodArray, ResizeNeverShrinks) {
  PodArray<std::uint32_t> a;
  EXPECT_EQ(a.size(), 0u);
  a.resize(10, 7);
  a[9] = 1;
  a.resize(4);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(a[9], 1u);
  a.resize(0, 5);
  EXPECT_EQ(a.size(), 10u);
  a.resize(12, 2);
  EXPECT_EQ(a.size(), 12u);
  EXPECT_EQ(a[0], 7u);
  EXPECT_EQ(a[9], 1u);
  EXPECT_EQ(a[10], 2u);
  EXPECT_EQ(a[11], 2u);
  PodArray<Wide> w;
  w.resize(2);  // default fill: a value-initialised T
  EXPECT_EQ(w[1].value, -1.0);
  EXPECT_EQ(w[1].tag, 7u);
}

TEST(PodArray, AtThrowsOutOfRange) {
  PodArray<double> a;
  EXPECT_THROW(a.at(0), std::out_of_range);
  a.resize(3, 1.5);
  EXPECT_EQ(a.at(2), 1.5);
  EXPECT_THROW(a.at(3), std::out_of_range);
  const PodArray<double>& c = a;
  EXPECT_THROW(c.at(100), std::out_of_range);
}

TEST(PodArray, CopiesAreIndependent) {
  PodArray<int> a;
  a.resize(5, 4);
  PodArray<int> b = a;
  b[0] = 9;
  EXPECT_EQ(a[0], 4);
  EXPECT_EQ(b.size(), 5u);
  PodArray<int> c;
  c.resize(40, 1);
  c = b;
  EXPECT_EQ(c.size(), 5u);
  EXPECT_EQ(c[0], 9);
  a = PodArray<int>();
  EXPECT_EQ(a.size(), 0u);
}

}  // namespace
}  // namespace apt::util
