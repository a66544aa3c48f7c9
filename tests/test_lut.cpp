#include "lut/lookup_table.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "lut/paper_data.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"

namespace apt::lut {
namespace {

/// canonical_kernel_name as it was before its fast path for names that are
/// already canonical, frozen as the reference the fast path must equal.
std::string frozen_canonical_kernel_name(const std::string& name) {
  std::string n = util::to_lower(util::trim(name));
  std::string squeezed;
  for (char c : n) {
    if (c == ' ' || c == '-' || c == '_') continue;
    squeezed.push_back(c);
  }
  if (squeezed == "matrixmultiplication" || squeezed == "matrixmatrixmultiplication" ||
      squeezed == "matmul" || squeezed == "mat.mat.multi." || squeezed == "mm")
    return kernels::kMatMul;
  if (squeezed == "matrixinverse" || squeezed == "matrixinversion" || squeezed == "mi")
    return kernels::kMatInv;
  if (squeezed == "choleskydecomposition" || squeezed == "choleskydeco." ||
      squeezed == "choleskydecomp." || squeezed == "cholesky" || squeezed == "cd")
    return kernels::kCholesky;
  if (squeezed == "needlemanwunsch" || squeezed == "nw") return kernels::kNeedlemanWunsch;
  if (squeezed == "breadthfirstsearch" || squeezed == "bfs") return kernels::kBfs;
  if (squeezed == "specklereducinganisotropicdiffusion" || squeezed == "srad")
    return kernels::kSrad;
  if (squeezed == "gaussianelectrostaticmodel" || squeezed == "gem")
    return kernels::kGem;
  return n;
}

/// Every alias, in the squeezed form the mapping compares.
const char* const kSqueezedAliases[] = {
    "matrixmultiplication", "matrixmatrixmultiplication", "matmul",
    "mat.mat.multi.", "mm", "matrixinverse", "matrixinversion", "mi",
    "choleskydecomposition", "choleskydeco.", "choleskydecomp.", "cholesky",
    "cd", "needlemanwunsch", "nw", "breadthfirstsearch", "bfs",
    "specklereducinganisotropicdiffusion", "srad",
    "gaussianelectrostaticmodel", "gem"};

Entry make_entry(const char* kernel, std::uint64_t size, double c, double g,
                 double f) {
  Entry e;
  e.kernel = kernel;
  e.data_size = size;
  e.time_ms = {c, g, f};
  return e;
}

TEST(ProcType, RoundTripsThroughStrings) {
  for (ProcType t : kAllProcTypes)
    EXPECT_EQ(proc_type_from_string(to_string(t)), t);
  EXPECT_EQ(proc_type_from_string("fpga"), ProcType::FPGA);
  EXPECT_EQ(proc_type_from_string("  Gpu "), ProcType::GPU);
  EXPECT_THROW(proc_type_from_string("asic"), std::invalid_argument);
}

TEST(KernelNames, CanonicalisesTheThesisSpellings) {
  EXPECT_EQ(canonical_kernel_name("Matrix Multiplication"), kernels::kMatMul);
  EXPECT_EQ(canonical_kernel_name("Matrix-Matrix Multiplication"),
            kernels::kMatMul);
  EXPECT_EQ(canonical_kernel_name("Mat.Mat. Multi."), kernels::kMatMul);
  EXPECT_EQ(canonical_kernel_name("Matrix Inverse"), kernels::kMatInv);
  EXPECT_EQ(canonical_kernel_name("Cholesky Decomposition"),
            kernels::kCholesky);
  EXPECT_EQ(canonical_kernel_name("Needleman Wunsch"),
            kernels::kNeedlemanWunsch);
  EXPECT_EQ(canonical_kernel_name("BFS"), kernels::kBfs);
  EXPECT_EQ(canonical_kernel_name("SRAD"), kernels::kSrad);
  EXPECT_EQ(canonical_kernel_name("GEM"), kernels::kGem);
  EXPECT_EQ(canonical_kernel_name("unknown thing"), "unknown thing");
}

// LutCostModel probes the table with dag::Node::kernel as stored, without
// canonicalising it again. That probe is exact only because a canonical
// name canonicalises to itself: every alias the mapping knows (spaced,
// squeezed, upper-case) and every unknown name.
TEST(KernelNames, CanonicalisationIsIdempotent) {
  std::vector<std::string> names(std::begin(kSqueezedAliases),
                                 std::end(kSqueezedAliases));
  for (const char* name : {
      // as the thesis tables and users write them
      "Matrix Multiplication", "Matrix-Matrix Multiplication",
      "Mat.Mat. Multi.", "Matrix Inverse", "Matrix Inversion",
      "Cholesky Decomposition", "Cholesky Deco.", "Cholesky_Decomp.",
      "Needleman Wunsch", "Breadth First Search",
      "Speckle Reducing Anisotropic Diffusion", "Gaussian Electrostatic Model",
      " MM ", "BFS", "SRAD", "GEM",
      // unknown names pass through trimmed and lower-cased
      "unknown thing", "  Mixed_Case-Name  ", "K", "k", "syn0"})
    names.emplace_back(name);
  for (const std::string& name : names) {
    const std::string once = canonical_kernel_name(name);
    EXPECT_FALSE(once.empty()) << name;
    EXPECT_EQ(canonical_kernel_name(once), once) << name;
  }
}

// Names that are already canonical skip the copies and the alias scan;
// every name must still canonicalise exactly as before.
TEST(KernelNames, FastPathMatchesTheFrozenCanonicaliser) {
  std::vector<std::string> names(std::begin(kSqueezedAliases),
                                 std::end(kSqueezedAliases));
  const LookupTable paper = paper_lookup_table();
  for (const Entry& e : paper.entries()) names.push_back(e.kernel);
  for (int k = 0; k < 150; ++k) names.push_back("syn" + std::to_string(k));
  // Seeded random ASCII: separators, case, edge whitespace, alias pieces.
  const std::string pieces[] = {"mat", "mul", "mm", "chol", "esky", "syn",
                                "Bfs", "gem", ".", " ", "-", "_", "\t", "\x7f",
                                "\xc3\xa9"};
  util::Rng rng(2024);
  for (int i = 0; i < 4000; ++i) {
    std::string name;
    const std::uint64_t parts = rng.uniform_u64(6);
    for (std::uint64_t p = 0; p < parts; ++p) {
      if (rng.uniform_u64(2) == 0)
        name += pieces[rng.uniform_u64(std::size(pieces))];
      else
        name.push_back(static_cast<char>(rng.uniform_u64(128)));
    }
    names.push_back(name);
  }
  for (const std::string& name : names)
    EXPECT_EQ(canonical_kernel_name(name), frozen_canonical_kernel_name(name))
        << "'" << name << "'";
}

TEST(LookupTable, FindProbesTheCanonicalNameAsGiven) {
  LookupTable t;
  t.add(make_entry("Matrix Multiplication", 100, 1.0, 2.0, 3.0));
  const Entry* hit = t.find("mm", 100);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit, &t.at("Matrix Multiplication", 100));
  EXPECT_EQ(hit, &t.entries().front());
  // No canonicalisation: other spellings miss instead of throwing.
  EXPECT_EQ(t.find("MM", 100), nullptr);
  EXPECT_EQ(t.find("Matrix Multiplication", 100), nullptr);
  EXPECT_EQ(t.find("mm", 101), nullptr);
  EXPECT_EQ(t.find("zz", 100), nullptr);
  EXPECT_EQ(LookupTable{}.find("mm", 100), nullptr);

  // The paper's table and the 12-processor synthetic one: every row is
  // found as stored; a name one character off a row's, the empty name and
  // size 0 miss; a size next to a row's finds no row of another size.
  for (const LookupTable& table :
       {paper_lookup_table(), test::fabric_table()}) {
    for (const Entry& e : table.entries()) {
      EXPECT_EQ(table.find(e.kernel, e.data_size), &e)
          << e.kernel << " " << e.data_size;
      for (std::uint64_t d = 1; d <= 64; ++d) {
        for (const std::uint64_t size : {e.data_size + d, e.data_size - d}) {
          if (table.find(e.kernel, size) == nullptr) continue;
          EXPECT_EQ(table.find(e.kernel, size)->data_size, size)
              << e.kernel << " " << size;
        }
      }
      EXPECT_EQ(table.find(e.kernel + "x", e.data_size), nullptr);
      EXPECT_EQ(table.find(e.kernel.substr(1), e.data_size), nullptr);
      EXPECT_EQ(table.find("", e.data_size), nullptr);
      EXPECT_EQ(table.find(e.kernel, 0), nullptr);
    }
    EXPECT_EQ(table.find("m", 250000), nullptr);
    EXPECT_EQ(table.find("mmm", 250000), nullptr);
    EXPECT_EQ(table.find("", 0), nullptr);
    EXPECT_EQ(table.find("zz", table.entries().front().data_size), nullptr);
  }
  // at() still names the kernel as asked when the probe misses.
  try {
    test::fabric_table().at("SYN0", 1);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "LookupTable: no row for kernel 'SYN0' size 1");
  }
}

TEST(LookupTable, AddAndExactQuery) {
  LookupTable t;
  t.add(make_entry("mm", 100, 1.0, 2.0, 3.0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.contains("mm", 100));
  EXPECT_FALSE(t.contains("mm", 101));
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mm", 100, ProcType::CPU), 1.0);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mm", 100, ProcType::GPU), 2.0);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mm", 100, ProcType::FPGA), 3.0);
}

TEST(LookupTable, QueriesCanonicaliseNames) {
  LookupTable t;
  t.add(make_entry("Matrix Multiplication", 100, 1.0, 2.0, 3.0));
  EXPECT_TRUE(t.contains("mm", 100));
  EXPECT_DOUBLE_EQ(t.exec_time_ms("MatMul", 100, ProcType::CPU), 1.0);
}

TEST(LookupTable, DuplicateRowThrows) {
  LookupTable t;
  t.add(make_entry("mm", 100, 1.0, 2.0, 3.0));
  EXPECT_THROW(t.add(make_entry("mm", 100, 9.0, 9.0, 9.0)),
               std::invalid_argument);
}

TEST(LookupTable, RejectsNonPositiveTimes) {
  LookupTable t;
  EXPECT_THROW(t.add(make_entry("mm", 1, 0.0, 1.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(t.add(make_entry("mm", 2, -1.0, 1.0, 1.0)),
               std::invalid_argument);
}

TEST(LookupTable, MissingRowThrows) {
  LookupTable t;
  EXPECT_THROW(t.at("mm", 100), std::out_of_range);
  // The message names the kernel as asked, not as canonicalised.
  t.add(make_entry("mm", 100, 1.0, 2.0, 3.0));
  try {
    t.at("Matrix Multiplication", 101);
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(),
                 "LookupTable: no row for kernel 'Matrix Multiplication' "
                 "size 101");
  }
}

TEST(LookupTable, BestProcessorAndOrdering) {
  LookupTable t;
  t.add(make_entry("k", 1, 5.0, 1.0, 3.0));
  EXPECT_EQ(t.best_processor("k", 1), ProcType::GPU);
  const auto order = t.processors_by_time("k", 1);
  EXPECT_EQ(order,
            (std::vector<ProcType>{ProcType::GPU, ProcType::FPGA,
                                   ProcType::CPU}));
}

TEST(LookupTable, BestProcessorTieBreaksTowardCpu) {
  LookupTable t;
  t.add(make_entry("k", 1, 2.0, 2.0, 5.0));
  EXPECT_EQ(t.best_processor("k", 1), ProcType::CPU);
}

TEST(LookupTable, HeterogeneityRatio) {
  LookupTable t;
  t.add(make_entry("k", 1, 10.0, 2.0, 5.0));
  EXPECT_DOUBLE_EQ(t.heterogeneity("k", 1), 5.0);
}

TEST(LookupTable, NearestPicksLogClosestSize) {
  LookupTable t;
  t.add(make_entry("k", 1000, 1.0, 1.0, 1.0));
  t.add(make_entry("k", 1000000, 2.0, 2.0, 2.0));
  EXPECT_EQ(t.nearest("k", 2000).data_size, 1000u);
  EXPECT_EQ(t.nearest("k", 900000).data_size, 1000000u);
  EXPECT_THROW(t.nearest("other", 10), std::out_of_range);
}

TEST(LookupTable, KernelsAndSizesEnumeration) {
  LookupTable t;
  t.add(make_entry("b", 2, 1, 1, 1));
  t.add(make_entry("a", 5, 1, 1, 1));
  t.add(make_entry("a", 3, 1, 1, 1));
  EXPECT_EQ(t.kernels(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(t.sizes_for("a"), (std::vector<std::uint64_t>{3, 5}));
  EXPECT_TRUE(t.sizes_for("zzz").empty());
}

TEST(LookupTable, CsvRoundTrip) {
  LookupTable t;
  t.add(make_entry("mm", 100, 1.5, 2.25, 3.125));
  t.add(make_entry("nw", 200, 10.0, 20.0, 30.0));
  const LookupTable back = LookupTable::from_csv(t.to_csv());
  EXPECT_EQ(back.size(), 2u);
  EXPECT_DOUBLE_EQ(back.exec_time_ms("mm", 100, ProcType::GPU), 2.25);
  EXPECT_DOUBLE_EQ(back.exec_time_ms("nw", 200, ProcType::FPGA), 30.0);
}

TEST(LookupTable, CsvFileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/apt_lut_test.csv";
  const LookupTable t = paper_lookup_table();
  t.save_csv_file(path);
  const LookupTable back = LookupTable::from_csv_file(path);
  EXPECT_EQ(back.size(), t.size());
  EXPECT_DOUBLE_EQ(back.exec_time_ms("mm", 64000000, ProcType::CPU),
                   t.exec_time_ms("mm", 64000000, ProcType::CPU));
  std::remove(path.c_str());
}

// --- Paper data (Table 14) ----------------------------------------------------

TEST(PaperData, Has25Rows) {
  EXPECT_EQ(paper_lookup_table().size(), 25u);
}

TEST(PaperData, SevenKernels) {
  const auto kernels = paper_lookup_table().kernels();
  EXPECT_EQ(kernels.size(), 7u);
  for (const char* k : {"bfs", "cd", "gem", "mi", "mm", "nw", "srad"})
    EXPECT_NE(std::find(kernels.begin(), kernels.end(), k), kernels.end())
        << k;
}

TEST(PaperData, LinearAlgebraKernelsHaveSevenSizes) {
  const auto t = paper_lookup_table();
  for (const char* k : {"mm", "mi", "cd"})
    EXPECT_EQ(t.sizes_for(k), paper_linear_algebra_sizes()) << k;
}

TEST(PaperData, SpotChecksAgainstTable14) {
  const auto t = paper_lookup_table();
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mm", 16000000, ProcType::CPU), 1967.286);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mm", 16000000, ProcType::GPU), 0.061);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mm", 16000000, ProcType::FPGA), 76293.945);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("cd", 250000, ProcType::FPGA), 0.093);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("mi", 698896, ProcType::GPU), 22.352);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("nw", 16777216, ProcType::CPU), 112.0);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("bfs", 2034736, ProcType::FPGA), 106.0);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("srad", 134217728, ProcType::GPU), 1600.0);
  EXPECT_DOUBLE_EQ(t.exec_time_ms("gem", 2070376, ProcType::FPGA), 585760.0);
}

TEST(PaperData, BestProcessorsMatchTheThesisNarrative) {
  const auto t = paper_lookup_table();
  // Table 7's "far apart execution times": nw->CPU, bfs->FPGA, cd->FPGA.
  EXPECT_EQ(t.best_processor("nw", 16777216), ProcType::CPU);
  EXPECT_EQ(t.best_processor("bfs", 2034736), ProcType::FPGA);
  EXPECT_EQ(t.best_processor("cd", 250000), ProcType::FPGA);
  // GPU dominates matrix multiplication at every size.
  for (std::uint64_t size : paper_linear_algebra_sizes())
    EXPECT_EQ(t.best_processor("mm", size), ProcType::GPU);
  EXPECT_EQ(t.best_processor("srad", 134217728), ProcType::GPU);
  EXPECT_EQ(t.best_processor("gem", 2070376), ProcType::GPU);
}

TEST(PaperData, DwarfSizes) {
  EXPECT_EQ(paper_dwarf_size("nw"), 16777216u);
  EXPECT_EQ(paper_dwarf_size("bfs"), 2034736u);
  EXPECT_EQ(paper_dwarf_size("srad"), 134217728u);
  EXPECT_EQ(paper_dwarf_size("gem"), 2070376u);
  EXPECT_THROW(paper_dwarf_size("mm"), std::invalid_argument);
}

TEST(PaperData, SystemIsHighlyHeterogeneous) {
  // The premise of the thesis: large heterogeneity ratios across kernels.
  const auto t = paper_lookup_table();
  EXPECT_GT(t.heterogeneity("mm", 64000000), 1e6);   // GPU vs FPGA
  EXPECT_GT(t.heterogeneity("gem", 2070376), 100.0);  // GPU vs FPGA
  EXPECT_LT(t.heterogeneity("nw", 16777216), 4.0);    // mild for nw
}


TEST(Heterogeneity, GeometricMeanAndMedian) {
  LookupTable t;
  t.add(make_entry("a", 1, 1.0, 2.0, 4.0));   // ratio 4
  t.add(make_entry("b", 1, 1.0, 1.0, 16.0));  // ratio 16
  EXPECT_DOUBLE_EQ(geometric_mean_heterogeneity(t), 8.0);  // sqrt(4*16)
  EXPECT_DOUBLE_EQ(median_heterogeneity(t), 10.0);         // (4+16)/2
  t.add(make_entry("c", 1, 3.0, 3.0, 3.0));   // ratio 1
  EXPECT_DOUBLE_EQ(median_heterogeneity(t), 4.0);
}

TEST(Heterogeneity, EmptyTableThrows) {
  LookupTable empty;
  EXPECT_THROW(geometric_mean_heterogeneity(empty), std::invalid_argument);
  EXPECT_THROW(median_heterogeneity(empty), std::invalid_argument);
}

TEST(Heterogeneity, PaperTableIsHighlyHeterogeneous) {
  const LookupTable t = paper_lookup_table();
  EXPECT_GT(geometric_mean_heterogeneity(t), 10.0);
  EXPECT_GT(median_heterogeneity(t), 3.0);
  EXPECT_LT(median_heterogeneity(t), geometric_mean_heterogeneity(t) * 100.0);
}

}  // namespace
}  // namespace apt::lut
