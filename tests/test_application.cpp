// Tests of the application model (Section 4) and the LCM merge.
#include "app/application.h"

#include <gtest/gtest.h>

#include "app/merge.h"
#include "fixtures.h"

namespace ftes {
namespace {

using ::ftes::testing::fig3_app;
using ::ftes::testing::two_node_arch;

TEST(Application, WcetTableAndRestrictions) {
  auto f = fig3_app();
  EXPECT_EQ(f.app.process(f.p2).wcet_on(NodeId{0}), 40);
  EXPECT_EQ(f.app.process(f.p2).wcet_on(NodeId{1}), 60);
  EXPECT_FALSE(f.app.process(f.p3).can_run_on(NodeId{1}));
  EXPECT_THROW((void)f.app.process(f.p3).wcet_on(NodeId{1}), std::invalid_argument);
}

TEST(Application, AdjacencyAndTopo) {
  auto f = fig3_app();
  EXPECT_EQ(f.app.predecessors(f.p4), std::vector<ProcessId>{f.p2});
  EXPECT_EQ(f.app.successors(f.p1), (std::vector<ProcessId>{f.p2, f.p3}));
  const auto order = f.app.topological_order();
  ASSERT_EQ(order.size(), 5u);
  EXPECT_EQ(order.front(), f.p1);
}

TEST(Application, RejectsSelfMessage) {
  auto f = fig3_app();
  EXPECT_THROW(f.app.connect(f.p1, f.p1), std::invalid_argument);
}

TEST(Application, ValidatePassesOnFixture) {
  auto f = fig3_app();
  EXPECT_NO_THROW(f.app.validate(two_node_arch()));
}

TEST(Application, ValidateRejectsUnknownNodeInWcet) {
  auto f = fig3_app();
  f.app.process(f.p1).wcet[NodeId{7}] = 10;
  EXPECT_THROW(f.app.validate(two_node_arch()), std::invalid_argument);
}

TEST(Application, ValidateRejectsNonPositiveWcet) {
  auto f = fig3_app();
  f.app.process(f.p1).wcet[NodeId{0}] = 0;
  EXPECT_THROW(f.app.validate(two_node_arch()), std::invalid_argument);
}

TEST(Application, ValidateRejectsEmptyApp) {
  Application app;
  EXPECT_THROW(app.validate(two_node_arch()), std::invalid_argument);
}

// --- merge -----------------------------------------------------------------

Application simple_chain(const std::string& prefix, Time wcet) {
  Application app;
  const ProcessId a = app.add_process(prefix + "a", {{NodeId{0}, wcet}}, 1, 1, 1);
  const ProcessId b = app.add_process(prefix + "b", {{NodeId{0}, wcet}}, 1, 1, 1);
  app.connect(a, b);
  return app;
}

TEST(Merge, LcmPeriod) {
  EXPECT_EQ(lcm_period({4, 6}), 12);
  EXPECT_EQ(lcm_period({5}), 5);
  EXPECT_EQ(lcm_period({2, 3, 7}), 42);
  EXPECT_THROW((void)lcm_period({0}), std::invalid_argument);
  EXPECT_THROW((void)lcm_period({}), std::invalid_argument);
}

TEST(Merge, InstantiatesShorterPeriodApps) {
  PeriodicApplication a{simple_chain("A", 10), 40};
  PeriodicApplication b{simple_chain("B", 5), 20};
  const Application merged = merge({a, b});
  EXPECT_EQ(merged.period(), 40);
  // A appears once (2 processes), B twice (4 processes).
  EXPECT_EQ(merged.process_count(), 6);
  EXPECT_EQ(merged.message_count(), 3);
  // Second instance of B is released one period later.
  int released_late = 0;
  for (const Process& p : merged.processes()) {
    if (p.release == 20) ++released_late;
  }
  EXPECT_EQ(released_late, 2);
}

TEST(Merge, InheritsDeadlinesAsLocalDeadlines) {
  Application chain = simple_chain("A", 10);
  chain.set_deadline(15);
  PeriodicApplication a{chain, 20};
  PeriodicApplication b{simple_chain("B", 5), 40};
  const Application merged = merge({a, b});
  // Each instance's sink gets deadline offset + 15.
  int with_deadline = 0;
  for (const Process& p : merged.processes()) {
    if (p.local_deadline) {
      ++with_deadline;
      EXPECT_TRUE(*p.local_deadline == 15 || *p.local_deadline == 35);
    }
  }
  EXPECT_EQ(with_deadline, 2);
}

TEST(Merge, MergedGraphIsAcyclicAndValid) {
  PeriodicApplication a{simple_chain("A", 10), 30};
  PeriodicApplication b{simple_chain("B", 5), 15};
  const Application merged = merge({a, b});
  EXPECT_NO_THROW(merged.validate(two_node_arch()));
  EXPECT_EQ(merged.topological_order().size(),
            static_cast<std::size_t>(merged.process_count()));
}

}  // namespace
}  // namespace ftes
