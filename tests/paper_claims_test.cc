// Pins every count behind EXPERIMENTS.md: the paper's §6 evaluation and
// the ablations. Timing stays out of tier-1; the counts are its
// deterministic stand-ins. Figure 3a's flat cast against a linear baseline
// is a constant node count against a growing one, and Figure 3b's two
// linear curves are Table 3's columns. bench_paper prints its tables from
// the same functions (bench/paper_experiments.h), so a change that moves a
// table moves one of these numbers.

#include "bench/paper_experiments.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace xmlreval::bench {
namespace {

static_assert(std::size(kItemGrid) == 6);

TEST(PaperClaimsTest, Table2DocumentBytes) {
  constexpr size_t kBytes[] = {759, 7645, 14831, 29615, 73649, 146787};
  for (size_t i = 0; i < std::size(kItemGrid); ++i) {
    EXPECT_EQ(Table2Bytes(kItemGrid[i]), kBytes[i])
        << kItemGrid[i] << " items";
  }
}

TEST(PaperClaimsTest, Figure3aCastVisitsAConstantFourNodes) {
  // Experiment 1: the root's content model is the only difference, and
  // every subtree under it is subsumed.
  constexpr uint64_t kFull[] = {44, 420, 812, 1612, 3996, 7956};
  for (size_t i = 0; i < std::size(kItemGrid); ++i) {
    const VisitCounts visits = Figure3aVisits(kItemGrid[i]);
    EXPECT_EQ(visits.cast, 4u) << kItemGrid[i] << " items";
    EXPECT_EQ(visits.full, kFull[i]) << kItemGrid[i] << " items";
  }
}

TEST(PaperClaimsTest, Table3Experiment2NodeCounts) {
  constexpr VisitCounts kVisits[] = {{15, 44},      {275, 420},
                                     {546, 812},    {1096, 1612},
                                     {2738, 3996},  {5468, 7956}};
  for (size_t i = 0; i < std::size(kItemGrid); ++i) {
    const VisitCounts visits = Table3Visits(kItemGrid[i]);
    EXPECT_EQ(visits.cast, kVisits[i].cast) << kItemGrid[i] << " items";
    EXPECT_EQ(visits.full, kVisits[i].full) << kItemGrid[i] << " items";
  }
}

TEST(PaperClaimsTest, A1OnlyCImmedStopsEarly) {
  for (size_t n : kA1Lengths) {
    const A1Counts equal = A1Symbols(Divergence::kNone, n);
    EXPECT_EQ(equal.c_immed, 0u) << n;
    EXPECT_EQ(equal.b_immed, n) << n;
    EXPECT_EQ(equal.plain, n) << n;

    const A1Counts early = A1Symbols(Divergence::kEarly, n);
    EXPECT_EQ(early.c_immed, 1u) << n;
    EXPECT_EQ(early.b_immed, n) << n;
    EXPECT_EQ(early.plain, n) << n;

    const A1Counts late = A1Symbols(Divergence::kLate, n);
    EXPECT_EQ(late.c_immed, n) << n;
    EXPECT_EQ(late.b_immed, n) << n;
    EXPECT_EQ(late.plain, n) << n;
  }
}

TEST(PaperClaimsTest, A2AdaptiveScanReadsTheShorterSide) {
  // Totals count phase 2 (the source symbols that recover the state at
  // the edit) as well as the new string's symbols.
  struct Row {
    int percent;
    size_t adaptive;
    bool backward;
    size_t forward_only;
  };
  constexpr Row kRows[] = {{1, 84, false, 84},
                           {25, 2050, false, 2050},
                           {50, 4096, true, 4098},
                           {75, 2050, true, 6144},
                           {99, 84, true, 8110}};
  static_assert(std::size(kRows) == std::size(kA2Positions));
  for (size_t i = 0; i < std::size(kRows); ++i) {
    ASSERT_EQ(kA2Positions[i], kRows[i].percent);
    const A2Counts counts = A2Symbols(kRows[i].percent);
    EXPECT_EQ(counts.adaptive, kRows[i].adaptive) << kRows[i].percent;
    EXPECT_EQ(counts.backward, kRows[i].backward) << kRows[i].percent;
    EXPECT_EQ(counts.forward_only, kRows[i].forward_only) << kRows[i].percent;
    EXPECT_EQ(counts.fresh, kA2Length) << kRows[i].percent;
  }
}

TEST(PaperClaimsTest, A3ChainPairsSubsumeNothing) {
  // No pair is subsumed, and the non-disjoint pairs number one per type
  // of a schema.
  constexpr RelationCounts kCounts[] = {{0, 5}, {0, 17}, {0, 65}, {0, 129}};
  static_assert(std::size(kCounts) == std::size(kA3Chains));
  for (size_t i = 0; i < std::size(kA3Chains); ++i) {
    const RelationCounts counts = A3Relations(kA3Chains[i]);
    EXPECT_EQ(counts.subsumed, kCounts[i].subsumed) << kA3Chains[i];
    EXPECT_EQ(counts.non_disjoint, kCounts[i].non_disjoint) << kA3Chains[i];
  }
}

TEST(PaperClaimsTest, A4IncrementalVisitsGrowWithTheEdits) {
  constexpr uint64_t kIncremental[] = {508, 521, 574, 787, 1639};
  static_assert(std::size(kIncremental) == std::size(kA4Edits));
  for (size_t i = 0; i < std::size(kA4Edits); ++i) {
    const A4Counts counts = A4Visits(kA4Edits[i]);
    EXPECT_EQ(counts.incremental, kIncremental[i]) << kA4Edits[i] << " edits";
    EXPECT_EQ(counts.full, 3996u) << kA4Edits[i] << " edits";
  }
}

TEST(PaperClaimsTest, A5LabelIndexVisits) {
  constexpr uint64_t kVisits[] = {152, 602, 3002};
  static_assert(std::size(kVisits) == std::size(kA5Items));
  for (size_t i = 0; i < std::size(kA5Items); ++i) {
    EXPECT_EQ(A5IndexVisits(kA5Items[i]), kVisits[i]) << kA5Items[i];
  }
}

TEST(PaperClaimsTest, A7RepairCounts) {
  EXPECT_EQ(Repairs(Experiment2Pair(), PurchaseOrder(kA7Items)), 0u);
  constexpr size_t kRepairs[] = {1, 10, 100};
  static_assert(std::size(kRepairs) == std::size(kA7Violations));
  for (size_t i = 0; i < std::size(kA7Violations); ++i) {
    EXPECT_EQ(Repairs(Experiment2Pair(),
                      OrderWithBadQuantities(kA7Violations[i])),
              kRepairs[i])
        << kA7Violations[i];
  }
  EXPECT_EQ(Repairs(Experiment1Pair(), OrderWithoutBillTo()), 1u);
}

}  // namespace
}  // namespace xmlreval::bench
