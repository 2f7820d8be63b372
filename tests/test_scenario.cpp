// Tests of fault scenarios and their enumeration (fault model, Section 2).
#include "fault/scenario.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fixtures.h"
#include "sched/schedule_table.h"

namespace ftes {
namespace {

using ::ftes::testing::fig3_app;

TEST(FaultScenario, AccumulatesHits) {
  FaultScenario s;
  const CopyRef c{ProcessId{0}, 0};
  EXPECT_TRUE(s.empty());
  s.add_fault(c);
  s.add_fault(c, 2);
  EXPECT_EQ(s.faults_on(c), 3);
  EXPECT_EQ(s.total_faults(), 3);
  EXPECT_EQ(s.faults_on(CopyRef{ProcessId{1}, 0}), 0);
  EXPECT_THROW((void)s.add_fault(c, -1), std::invalid_argument);
}

// The survival law, as every table consumer applies it: a copy survives a
// scenario iff its CopyRecovery survives the faults on it -- at most its
// recoveries when it is checkpointed, none for a replica, whatever
// recovery count its plan carries.
TEST(FaultScenario, CopySurvivalAgainstRecoveries) {
  auto f = fig3_app();
  PolicyAssignment pa =
      uniform_assignment(f.app, make_checkpointing_plan(2, 1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  pa.plan(f.p2).copies[0].recoveries = 1;
  pa.plan(f.p3) = make_replication_plan(1);
  for (CopyPlan& c : pa.plan(f.p3).copies) c.node = NodeId{0};
  pa.plan(f.p4).copies[0].checkpoints = 0;  // a replica with 2 recoveries

  FaultScenario s;
  s.add_fault(CopyRef{f.p1, 0}, 2);
  s.add_fault(CopyRef{f.p2, 0}, 2);
  s.add_fault(CopyRef{f.p3, 0}, 1);
  s.add_fault(CopyRef{f.p4, 0}, 1);
  const std::vector<TableCopy> copies = table_copies(f.app, pa);
  ASSERT_EQ(copies.size(), 6u);
  const auto survives = [&](const TableCopy& c) {
    return c.law.survives(s.faults_on(c.ref));
  };
  EXPECT_TRUE(survives(copies[0]));   // P1: 2 faults, 2 recoveries
  EXPECT_FALSE(survives(copies[1]));  // P2: 2 faults, 1 recovery
  EXPECT_FALSE(survives(copies[2]));  // P3 replica 1: struck once
  EXPECT_TRUE(survives(copies[3]));   // P3 replica 2: not struck
  EXPECT_FALSE(survives(copies[4]));  // P4: a replica has no recoveries
  EXPECT_EQ(copies[4].law.recoveries, 2);
  EXPECT_EQ(copies[4].law.budget(), 0);
  EXPECT_TRUE(survives(copies[5]));   // P5: not struck
}

TEST(FaultScenario, ToStringNamesProcesses) {
  auto f = fig3_app();
  FaultScenario s;
  s.add_fault(CopyRef{f.p2, 0}, 2);
  EXPECT_EQ(s.to_string(f.app), "{P2x2}");
  EXPECT_EQ(FaultScenario{}.to_string(f.app), "{no faults}");
}

// Enumeration size: distributing <= k faults over m copies yields
// C(m + k, k) scenarios (stars and bars, including the empty one).
TEST(ScenarioEnumeration, CountsMatchStarsAndBars) {
  auto f = fig3_app();
  PolicyAssignment pa = uniform_assignment(f.app, make_checkpointing_plan(2, 1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  // m = 5 copies, k = 2: C(7,2) = 21.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 2).size(), 21u);
  // k = 1: C(6,1) = 6.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 1).size(), 6u);
  // k = 0: only the fault-free scenario.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 0).size(), 1u);
}

TEST(ScenarioEnumeration, RespectsBudgetAndUniqueness) {
  auto f = fig3_app();
  PolicyAssignment pa = uniform_assignment(f.app, make_checkpointing_plan(3, 1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  const auto scenarios = enumerate_scenarios(f.app, pa, 3);
  std::set<std::string> seen;
  for (const FaultScenario& s : scenarios) {
    EXPECT_LE(s.total_faults(), 3);
    EXPECT_TRUE(seen.insert(s.to_string(f.app)).second)
        << "duplicate scenario " << s.to_string(f.app);
  }
}

TEST(ScenarioEnumeration, CoversReplicaCopies) {
  auto f = fig3_app();
  PolicyAssignment pa = uniform_assignment(f.app, make_replication_plan(1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    for (CopyPlan& c : pa.plan(ProcessId{i}).copies) c.node = NodeId{0};
  }
  // m = 10 copies, k = 1: 11 scenarios.
  EXPECT_EQ(enumerate_scenarios(f.app, pa, 1).size(), 11u);
}

}  // namespace
}  // namespace ftes
