// Reproduction-shape tests: the qualitative results of the thesis's
// evaluation (Chapter 4) must hold on our regenerated workloads. Absolute
// milliseconds cannot match (the authors' exact random graphs are lost), but
// who wins, roughly by how much, and where the α-valley bottoms out are all
// pinned here; the paper-table benches print the exact measured numbers.
#include <gtest/gtest.h>

#include "core/experiments.hpp"

namespace apt::core {
namespace {

/// Column indices in paper_policy_specs order.
constexpr std::size_t kApt = 0;
constexpr std::size_t kMet = 1;
constexpr std::size_t kSpn = 2;
constexpr std::size_t kSs = 3;
constexpr std::size_t kAg = 4;
constexpr std::size_t kHeft = 5;
constexpr std::size_t kPeft = 6;

class PaperShape : public ::testing::TestWithParam<dag::DfgType> {
 protected:
  static const Grid& grid_alpha(dag::DfgType type, double alpha) {
    static std::map<std::pair<int, double>, Grid> cache;
    const auto key = std::make_pair(static_cast<int>(type), alpha);
    auto it = cache.find(key);
    if (it == cache.end()) {
      it = cache.emplace(key, run_paper_grid(type, paper_policy_specs(alpha)))
               .first;
    }
    return it->second;
  }
};

// §4.2, Tables 8/9: with α = 1.5 APT tracks MET almost exactly (the
// threshold is too tight to change anything material).
TEST_P(PaperShape, Alpha1_5MimicsMet) {
  const Grid& grid = grid_alpha(GetParam(), 1.5);
  EXPECT_NEAR(grid.avg_makespan_ms(kApt), grid.avg_makespan_ms(kMet),
              0.02 * grid.avg_makespan_ms(kMet));
  // and per-experiment the two differ by at most a few percent:
  for (std::size_t g = 0; g < grid.experiment_count(); ++g) {
    EXPECT_NEAR(grid.cells[g][kApt].makespan_ms,
                grid.cells[g][kMet].makespan_ms,
                0.10 * grid.cells[g][kMet].makespan_ms)
        << "experiment " << g + 1;
  }
}

// §4.4, Table 13 row α=1.5: improvement is ~0 (slightly negative allowed).
TEST_P(PaperShape, Alpha1_5ImprovementIsNearZero) {
  const Grid& grid = grid_alpha(GetParam(), 1.5);
  EXPECT_NEAR(improvement_exec_pct(grid, kApt), 0.0, 2.0);
}

// §4.2/§4.4: at the threshold break (α = 4) APT beats the second-best
// dynamic policy by a double-digit percentage (paper: 18.2% on Type-1,
// 15.8% on Type-2; we measure ~20%/15%).
TEST_P(PaperShape, Alpha4DeliversTheHeadlineImprovement) {
  const Grid& grid = grid_alpha(GetParam(), 4.0);
  const double exec_improvement = improvement_exec_pct(grid, kApt);
  EXPECT_GE(exec_improvement, 10.0);
  EXPECT_LE(exec_improvement, 30.0);
  // λ improvement is at least as strong (paper: "the percentage of
  // improvement is higher for λ than for the overall execution time").
  EXPECT_GE(improvement_lambda_pct(grid, kApt), exec_improvement - 2.0);
}

// §4.2: APT(4) wins the bulk of the experiments outright (9/10 in the
// paper; we demand a strict majority against all six competitors).
TEST_P(PaperShape, Alpha4WinsMostExperiments) {
  const Grid& grid = grid_alpha(GetParam(), 4.0);
  std::size_t beats_met = 0;
  for (std::size_t g = 0; g < grid.experiment_count(); ++g) {
    if (grid.cells[g][kApt].makespan_ms < grid.cells[g][kMet].makespan_ms)
      ++beats_met;
  }
  EXPECT_GE(beats_met, 8u);
}

// §4.2: the per-policy ranking of the averages. APT(4) and MET lead the
// dynamic field; SPN, SS and AG trail by multiples (their blow-ups in
// Tables 8-10 are the paper's most dramatic numbers).
TEST_P(PaperShape, DynamicPolicyRanking) {
  const Grid& grid = grid_alpha(GetParam(), 4.0);
  const double apt = grid.avg_makespan_ms(kApt);
  const double met = grid.avg_makespan_ms(kMet);
  EXPECT_LT(apt, met);
  for (std::size_t trailing : {kSpn, kSs, kAg}) {
    EXPECT_GT(grid.avg_makespan_ms(trailing), 2.0 * met)
        << grid.policy_names[trailing];
  }
}

// §4.2, Figures 6/8: HEFT and PEFT are competitive with the best dynamic
// policies — same ballpark, not blow-ups.
TEST_P(PaperShape, StaticPoliciesAreCompetitive) {
  const Grid& grid = grid_alpha(GetParam(), 4.0);
  const double met = grid.avg_makespan_ms(kMet);
  EXPECT_LT(grid.avg_makespan_ms(kHeft), 1.25 * met);
  EXPECT_LT(grid.avg_makespan_ms(kPeft), 1.25 * met);
}

// §4.2, Figures 7/9: the α-valley. Makespan drops from α=1.5 to the
// threshold break at α=4, then rises again toward α=8/16.
TEST_P(PaperShape, AlphaValleyBottomsAtFour) {
  const auto points =
      apt_alpha_sweep(GetParam(), paper_alphas(), {4.0});
  ASSERT_EQ(points.size(), 5u);
  const double at_1_5 = points[0].avg_makespan_ms;
  const double at_2 = points[1].avg_makespan_ms;
  const double at_4 = points[2].avg_makespan_ms;
  const double at_8 = points[3].avg_makespan_ms;
  const double at_16 = points[4].avg_makespan_ms;
  EXPECT_LT(at_4, at_1_5);
  EXPECT_LT(at_4, at_2);
  EXPECT_LT(at_4, at_8);
  EXPECT_LT(at_4, at_16);
}

// §4.2.2, Figure 9: raising the PCIe rate from 4 to 8 GB/s changes little,
// and what changes is an improvement (transfers get cheaper).
TEST_P(PaperShape, TransferRateHasSmallEffect) {
  const auto points = apt_alpha_sweep(GetParam(), {4.0}, {4.0, 8.0});
  ASSERT_EQ(points.size(), 2u);
  EXPECT_LE(points[1].avg_makespan_ms, points[0].avg_makespan_ms * 1.001);
  EXPECT_GE(points[1].avg_makespan_ms, points[0].avg_makespan_ms * 0.90);
}

// §4.3, Tables 11/12: λ-delay shape — APT(4) has less total λ than MET
// (quicker assignments shrink waiting), and the λ valley mirrors the
// makespan valley: α=4 also beats α=1.5 on λ (Figures 11/12).
// Deviation note: the thesis also reports huge λ for SPN; under our λ
// definition (ready-queue wait excluding data movement) SPN's λ is *small*
// because SPN never lets a kernel sit unassigned — its damage shows in the
// makespan instead.
TEST_P(PaperShape, LambdaShape) {
  const Grid& tight = grid_alpha(GetParam(), 1.5);
  const Grid& grid = grid_alpha(GetParam(), 4.0);
  EXPECT_LT(grid.avg_lambda_ms(kApt), grid.avg_lambda_ms(kMet));
  EXPECT_LT(grid.avg_lambda_ms(kApt), tight.avg_lambda_ms(kApt));
}

// Appendix B, Tables 15/16: alternative-assignment counts grow with α —
// none to speak of at 1.5, dozens at 4.
TEST_P(PaperShape, AlternativeAssignmentsGrowWithAlpha) {
  const Grid& tight = grid_alpha(GetParam(), 1.5);
  const Grid& loose = grid_alpha(GetParam(), 4.0);
  std::size_t alts_tight = 0;
  std::size_t alts_loose = 0;
  for (std::size_t g = 0; g < tight.experiment_count(); ++g) {
    alts_tight += tight.cells[g][kApt].alternative_count;
    alts_loose += loose.cells[g][kApt].alternative_count;
  }
  EXPECT_LT(alts_tight, alts_loose);
  EXPECT_GE(alts_loose, 50u);  // paper: 17-47 per experiment at α=4
}

// Appendix B: at α=4 the alternatives include the kernels whose
// second-best processor is within 4x (nw, bfs, srad, mi) but not mm
// (whose GPU dominance is 4-6 orders of magnitude).
TEST_P(PaperShape, AlternativeKernelMixMatchesAppendixB) {
  const Grid& grid = grid_alpha(GetParam(), 4.0);
  std::map<std::string, std::size_t> totals;
  for (std::size_t g = 0; g < grid.experiment_count(); ++g) {
    for (const auto& [kernel, count] :
         grid.cells[g][kApt].alternative_by_kernel)
      totals[kernel] += count;
  }
  EXPECT_EQ(totals.count("mm"), 0u);
  EXPECT_GT(totals["nw"] + totals["bfs"] + totals["srad"] + totals["mi"], 0u);
}

INSTANTIATE_TEST_SUITE_P(BothDfgTypes, PaperShape,
                         ::testing::Values(dag::DfgType::Type1,
                                           dag::DfgType::Type2),
                         [](const ::testing::TestParamInfo<dag::DfgType>& i) {
                           return i.param == dag::DfgType::Type1 ? "Type1"
                                                                 : "Type2";
                         });

}  // namespace
}  // namespace apt::core
