// Unit + property tests of the checkpointing recovery algebra (Section 3.1).
#include "fault/recovery.h"

#include <gtest/gtest.h>

#include <string>

namespace ftes {
namespace {

// The paper's Fig. 1: C1 = 60 ms, alpha = 10, mu = 10, chi = 5.
constexpr RecoveryParams kFig1{60, 10, 10, 5};

TEST(Recovery, SegmentLengthIsCeilDiv) {
  EXPECT_EQ(segment_length(60, 1), 60);
  EXPECT_EQ(segment_length(60, 2), 30);
  EXPECT_EQ(segment_length(61, 2), 31);
  EXPECT_EQ(segment_length(60, 7), 9);
}

TEST(Recovery, SegmentLengthRejectsBadArgs) {
  EXPECT_THROW((void)segment_length(60, 0), std::invalid_argument);
  EXPECT_THROW((void)segment_length(0, 1), std::invalid_argument);
}

TEST(Recovery, Fig1bFaultFreeWithTwoCheckpoints) {
  // Fig. 1b: two checkpoints -> 60 + 2*chi = 70 ms.
  EXPECT_EQ(checkpointed_exec_time(kFig1, 2, 0), 70);
}

TEST(Recovery, Fig1cSingleFaultSecondSegment) {
  // Fig. 1c: one fault -> 70 + (30 + alpha + mu) = 120 ms.
  EXPECT_EQ(checkpointed_exec_time(kFig1, 2, 1), 120);
}

TEST(Recovery, ReexecutionIsSingleCheckpointCase) {
  // n = 1: every fault re-executes the whole process.
  EXPECT_EQ(checkpointed_exec_time(kFig1, 1, 0), 65);  // 60 + chi
  EXPECT_EQ(checkpointed_exec_time(kFig1, 1, 2), 65 + 2 * (60 + 10 + 10));
}

TEST(Recovery, ReplicaTimeIsPlainWcet) {
  EXPECT_EQ(replica_exec_time(kFig1), 60);
}

TEST(Recovery, FaultOccurrenceAndRecoveryOffsets) {
  // n = 1 re-execution: fault j occurs at j*C + (j-1)*(alpha+mu); the
  // recovery starts alpha+mu later.  Matches Fig. 6's P1 row (0/35/70 for
  // C = 30, alpha+mu = 5).
  const CopyRecovery law{{30, 5, 0, 0}, 1, 2};
  EXPECT_EQ(law.occurrence(1), 30);
  EXPECT_EQ(law.recovery_start(1), 35);
  EXPECT_EQ(law.occurrence(2), 65);
  EXPECT_EQ(law.recovery_start(2), 70);
  EXPECT_THROW((void)law.occurrence(0), std::invalid_argument);
}

TEST(Recovery, ExecTimeMonotoneInFaults) {
  for (int n = 1; n <= 8; ++n) {
    for (int f = 0; f < 6; ++f) {
      EXPECT_LT(checkpointed_exec_time(kFig1, n, f),
                checkpointed_exec_time(kFig1, n, f + 1));
    }
  }
}

TEST(Recovery, CompletionConsistentWithRecoveryOffsets) {
  // With all faults on the first segment, the f-th recovery re-runs the
  // whole remaining fault-free schedule of the copy:
  //   E(n, f) == recovery_start(f) + E(n, 0).
  for (int n : {1, 2, 3, 5}) {
    for (int f : {1, 2, 3}) {
      const CopyRecovery law{kFig1, n, f};
      EXPECT_EQ(law.run_time(f), law.recovery_start(f) + law.run_time(0))
          << "n=" << n << " f=" << f;
    }
  }
}

// --- the per-copy law --------------------------------------------------------

// One copy's fate under f faults on Fig. 1's timing: survival, its run up to
// completion or to the detection of its killing fault, and the last
// condition F^j it reveals.
struct LawCase {
  const char* what;
  int checkpoints;
  int recoveries;
  int faults;
  bool survives;
  Time run_time;
  int last_reveal;
};

TEST(CopyRecovery, Fig1LawTable) {
  const LawCase cases[] = {
      // n = 2, R = 2: E(2, f) = 70 + 50 f (Fig. 1c: 120 for one fault); the
      // third fault kills it at occurrence(3) + alpha = 130 + 10.
      {"checkpointed", 2, 2, 0, true, 70, 1},
      {"checkpointed", 2, 2, 1, true, 120, 2},
      {"checkpointed", 2, 2, 2, true, 170, 2},
      {"checkpointed", 2, 2, 3, false, 140, 3},
      // A hybrid's checkpointed copy, R = 1: the second fault kills it at
      // occurrence(2) + alpha = 80 + 10.
      {"hybrid copy", 2, 1, 0, true, 70, 1},
      {"hybrid copy", 2, 1, 1, true, 120, 1},
      {"hybrid copy", 2, 1, 2, false, 90, 2},
      // A replica runs C and dies at its first fault, detected at C + alpha.
      {"replica", 0, 0, 0, true, 60, 0},
      {"replica", 0, 0, 1, false, 70, 1},
      // Recoveries without checkpoints buy nothing: a replica's law.
      {"uncheckpointed", 0, 2, 0, true, 60, 0},
      {"uncheckpointed", 0, 2, 1, false, 70, 1},
      {"uncheckpointed", 0, 2, 2, false, 70, 1},
  };
  for (const LawCase& c : cases) {
    SCOPED_TRACE(std::string(c.what) + " under " + std::to_string(c.faults) +
                 " faults");
    const CopyRecovery law{kFig1, c.checkpoints, c.recoveries};
    EXPECT_EQ(law.survives(c.faults), c.survives);
    EXPECT_EQ(law.run_time(c.faults), c.run_time);
    EXPECT_EQ(law.last_reveal(c.faults), c.last_reveal);
  }
}

TEST(CopyRecovery, BudgetOffsetsAndStep) {
  const CopyRecovery checkpointed{kFig1, 2, 2};
  const CopyRecovery hybrid_copy{kFig1, 2, 1};
  const CopyRecovery replica{kFig1, 0, 0};
  const CopyRecovery uncheckpointed{kFig1, 0, 2};
  EXPECT_EQ(checkpointed.budget(), 2);
  EXPECT_EQ(hybrid_copy.budget(), 1);
  EXPECT_EQ(replica.budget(), 0);
  EXPECT_EQ(uncheckpointed.budget(), 0);

  EXPECT_EQ(checkpointed.step(), 50);  // ceil(60/2) + alpha + mu
  EXPECT_EQ(checkpointed.occurrence(1), 30);
  EXPECT_EQ(checkpointed.recovery_start(1), 50);
  EXPECT_EQ(checkpointed.occurrence(2), 80);
  EXPECT_EQ(checkpointed.recovery_start(2), 100);

  // A replica's run is one segment; it has no step.
  EXPECT_EQ(replica.occurrence(1), 60);
  EXPECT_EQ(replica.recovery_start(1), 80);
  EXPECT_THROW((void)replica.step(), std::invalid_argument);
}

TEST(CopyRecovery, FaultFreeRunInvertsToWcet) {
  Process proc;
  proc.wcet[NodeId{0}] = 60;
  proc.alpha = 10;
  proc.mu = 10;
  proc.chi = 5;
  for (int n : {0, 1, 2, 7}) {
    const CopyPlan cp{NodeId{0}, n, n >= 1 ? 2 : 0};
    const CopyRecovery law = CopyRecovery::of(proc, cp);
    EXPECT_EQ(law.params.wcet, 60);
    const CopyRecovery back =
        CopyRecovery::from_fault_free(proc, cp, law.run_time(0));
    EXPECT_EQ(back.params.wcet, 60) << "n=" << n;
  }
  // A zero C: E(n, 0) never checks it, the step and E(n, f >= 1) do.
  const CopyRecovery zero =
      CopyRecovery::from_fault_free(proc, CopyPlan{NodeId{0}, 2, 2}, 10);
  EXPECT_EQ(zero.params.wcet, 0);
  EXPECT_EQ(zero.run_time(0), 10);
  EXPECT_THROW((void)zero.step(), std::invalid_argument);
  EXPECT_THROW((void)zero.run_time(1), std::invalid_argument);
}

// --- local optimal checkpoint count ([27]) --------------------------------

TEST(Recovery, LocalOptimumMinimizesExecTime) {
  // Exhaustive check: the returned n is no worse than any n in range.
  const int cap = 32;
  for (Time chi : {1, 3, 5, 10}) {
    for (Time c : {20, 60, 100, 250}) {
      for (int k : {1, 2, 4, 7}) {
        const RecoveryParams p{c, 5, 5, chi};
        const int n0 = optimal_checkpoints_local(p, k, cap);
        const Time best = checkpointed_exec_time(p, n0, k);
        for (int n = 1; n <= cap; ++n) {
          EXPECT_LE(best, checkpointed_exec_time(p, n, k))
              << "chi=" << chi << " C=" << c << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

TEST(Recovery, LocalOptimumNoFaultsIsOne) {
  EXPECT_EQ(optimal_checkpoints_local(kFig1, 0), 1);
}

TEST(Recovery, LocalOptimumFreeCheckpointsHitsCap) {
  const RecoveryParams p{60, 10, 10, 0};
  EXPECT_EQ(optimal_checkpoints_local(p, 2, 16), 16);
}

TEST(Recovery, MoreCheckpointsTradeOverheadForRecovery) {
  // With many faults, more checkpoints pay off; with none, they only cost.
  const RecoveryParams p{100, 2, 2, 2};
  EXPECT_GT(checkpointed_exec_time(p, 1, 5),
            checkpointed_exec_time(p, 5, 5));
  EXPECT_LT(checkpointed_exec_time(p, 1, 0),
            checkpointed_exec_time(p, 5, 0));
}

// Parameterized sweep: the optimum from the closed form never loses to its
// neighbours (guards the floor/ceil adjustment).
class LocalOptSweep : public ::testing::TestWithParam<int> {};

TEST_P(LocalOptSweep, NeighbourhoodOptimal) {
  const int k = GetParam();
  for (Time c = 10; c <= 200; c += 17) {
    const RecoveryParams p{c, 3, 4, 6};
    const int n0 = optimal_checkpoints_local(p, k, 64);
    const Time best = checkpointed_exec_time(p, n0, k);
    for (int d : {-2, -1, 1, 2}) {
      const int n = n0 + d;
      if (n < 1 || n > 64) continue;
      EXPECT_LE(best, checkpointed_exec_time(p, n, k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Faults, LocalOptSweep, ::testing::Values(1, 2, 3, 5, 7));

}  // namespace
}  // namespace ftes
