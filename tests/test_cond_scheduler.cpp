// Tests of the conditional scheduler / schedule tables (Section 5, Fig. 6).
#include "sched/cond_scheduler.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "reference_cond_tables.h"
#include "sched/table_export.h"
#include "sim/executor.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;
using ::ftes::testing::reference_build_tables;
using ::ftes::testing::replicate_every;

TEST(CondScheduler, FaultFreeScenarioMatchesListScheduleShape) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  ASSERT_FALSE(r.traces.empty());
  // The first enumerated scenario is fault-free.
  const ScenarioTrace& ff = r.traces.front();
  EXPECT_EQ(ff.scenario.total_faults(), 0);
  for (const ExecTrace& e : ff.execs) {
    EXPECT_FALSE(e.died);
    EXPECT_EQ(e.attempt_starts.size(), 1u);
  }
}

TEST(CondScheduler, ScenarioCountIsStarsAndBars) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // 4 copies, k = 2: C(6,2) = 15 scenarios.
  EXPECT_EQ(r.scenario_count, 15);
}

TEST(CondScheduler, Fig6ReexecutionStartsOfP1) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P1 (C = 30, alpha = 5, mu = chi = 0) re-executes at 0 / 35 / 70,
  // exactly the paper's Fig. 6 N1 row for P1.
  FaultScenario two_faults;
  two_faults.add_fault(CopyRef{f.p1, 0}, 2);
  bool found = false;
  for (const ScenarioTrace& tr : r.traces) {
    if (!(tr.scenario.hits() == two_faults.hits())) continue;
    found = true;
    for (const ExecTrace& e : tr.execs) {
      if (e.copy.process == f.p1) {
        ASSERT_EQ(e.attempt_starts.size(), 3u);
        EXPECT_EQ(e.attempt_starts[0], 0);
        EXPECT_EQ(e.attempt_starts[1], 35);
        EXPECT_EQ(e.attempt_starts[2], 70);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(CondScheduler, TransparencyPinsFrozenStarts) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P3 and the frozen messages must start at one single time across all 15
  // scenarios (checked exhaustively by the executor).
  const ExecutionReport report =
      check_all_scenarios(f.app, f.assignment, r);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
  ASSERT_TRUE(r.frozen_starts.count("P3"));
  ASSERT_TRUE(r.frozen_starts.count("m2"));
  ASSERT_TRUE(r.frozen_starts.count("m3"));
  // The pinned start must accommodate the worst input path.
  Time latest_m3 = 0;
  for (const ScenarioTrace& tr : r.traces) {
    for (const TxTrace& tx : tr.txs) {
      if (!tx.is_condition && tx.msg == f.m3) {
        latest_m3 = std::max(latest_m3, tx.start);
      }
    }
  }
  EXPECT_EQ(latest_m3, r.frozen_starts.at("m3"));
}

TEST(CondScheduler, TransparencyCostsScheduleLength) {
  auto frozen = fig5_app();
  const CondScheduleResult with =
      conditional_schedule(frozen.app, frozen.arch, frozen.assignment,
                           frozen.model);
  CondScheduleOptions opts;
  opts.respect_transparency = false;
  const CondScheduleResult without =
      conditional_schedule(frozen.app, frozen.arch, frozen.assignment,
                           frozen.model, opts);
  // Section 3.3: transparency may only lengthen the worst case...
  EXPECT_GE(with.wcsl, without.wcsl);
  // ...but shrinks the tables (fewer distinct columns downstream).
  EXPECT_LE(with.tables.total_entries(), without.tables.total_entries());
}

TEST(CondScheduler, FrozenMessageOccupiesBusEvenWhenCoLocated) {
  auto f = fig5_app();
  // m3: P4 -> P3, both on N2, but frozen => must appear on the bus, like
  // the paper's Fig. 6 where frozen m3 takes a slot at t = 120.
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  EXPECT_TRUE(r.tables.bus_rows.count("m3"));
}

TEST(CondScheduler, ConditionBroadcastsAppearInBusRows) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P1 can fault twice: both condition rows must exist (Fig. 6's F rows).
  EXPECT_TRUE(r.tables.bus_rows.count("F_P1^1"));
  EXPECT_TRUE(r.tables.bus_rows.count("F_P1^2"));
}

TEST(CondScheduler, TablesSeparateRowsByNode) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const TableRows& n1 = r.tables.node_rows[0];
  const TableRows& n2 = r.tables.node_rows[1];
  EXPECT_TRUE(n1.count("P1"));
  EXPECT_TRUE(n1.count("P2"));
  EXPECT_FALSE(n1.count("P3"));
  EXPECT_TRUE(n2.count("P3"));
  EXPECT_TRUE(n2.count("P4"));
}

TEST(CondScheduler, GuardsGrowWithFaultHistory) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // P1's first activation is unconditional; its re-executions carry the
  // fault literals of the earlier attempts.
  const auto& p1_row = r.tables.node_rows[0].at("P1");
  bool unconditional_first = false;
  bool conditional_reexec = false;
  for (const TableEntry& e : p1_row) {
    if (e.start == 0 && e.guard.literals().empty()) unconditional_first = true;
    if (e.start == 35 && e.guard.faults() >= 1) conditional_reexec = true;
  }
  EXPECT_TRUE(unconditional_first);
  EXPECT_TRUE(conditional_reexec);
}

TEST(CondScheduler, WcslDominatesEveryScenario) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  for (const ScenarioTrace& tr : r.traces) {
    EXPECT_LE(tr.makespan, r.wcsl);
  }
  EXPECT_GT(r.wcsl, 0);
}

TEST(CondScheduler, ScenarioCapThrows) {
  auto f = fig5_app();
  CondScheduleOptions opts;
  opts.max_scenarios = 3;
  EXPECT_THROW(
      conditional_schedule(f.app, f.arch, f.assignment, f.model, opts),
      std::length_error);
}

TEST(CondScheduler, ReplicationSchedulesAllCopies) {
  auto f = fig5_app();
  ProcessPlan plan = make_replication_plan(f.model.k);
  plan.copies[0].node = NodeId{0};
  plan.copies[1].node = NodeId{1};
  plan.copies[2].node = NodeId{0};
  f.assignment.plan(f.p1) = plan;
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const ScenarioTrace& ff = r.traces.front();
  int p1_copies = 0;
  for (const ExecTrace& e : ff.execs) {
    if (e.copy.process == f.p1) ++p1_copies;
  }
  EXPECT_EQ(p1_copies, 3);
  const ExecutionReport report = check_all_scenarios(f.app, f.assignment, r);
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(CondScheduler, TextRenderingMentionsAllRows) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string text = r.tables.to_text(f.arch);
  for (const char* token : {"P1", "P2", "P3", "P4", "m1", "m2", "m3",
                            "F_P1^1", "WCSL"}) {
    EXPECT_NE(text.find(token), std::string::npos) << token;
  }
}

// Scenario workers simulate concurrently and read one condition registry.
// With real pool helpers (even on a single-core host) the tables, frozen
// pins and every trace must equal the serial run's, across the frozen-start
// fixpoint and with replicated producers.  The TSan lane runs this suite.
TEST(CondScheduler, ParallelScenariosMatchSerial) {
  TaskGenParams params;
  params.process_count = 14;
  params.node_count = 3;
  params.frozen_process_fraction = 0.25;
  params.frozen_message_fraction = 0.25;
  Rng rng(2003);
  const Application app = generate_application(params, rng);
  const Architecture arch = generate_architecture(params);
  const FaultModel model{2};
  PolicyAssignment pa = greedy_initial(app, arch, model,
                                       PolicySpace::kCheckpointingOnly, 3);
  replicate_every(app, arch, model, 4, pa);
  const CondScheduleResult serial = conditional_schedule(app, arch, pa, model);

  ThreadPool pool(3);
  CondScheduleOptions opts;
  opts.threads = 4;
  opts.pool = &pool;
  const CondScheduleResult parallel =
      conditional_schedule(app, arch, pa, model, opts);

  EXPECT_FALSE(serial.frozen_starts.empty());
  EXPECT_EQ(serial.frozen_starts, parallel.frozen_starts);
  EXPECT_EQ(tables_to_json(serial.tables, arch),
            tables_to_json(parallel.tables, arch));
  ASSERT_EQ(serial.traces.size(), parallel.traces.size());
  for (std::size_t s = 0; s < serial.traces.size(); ++s) {
    const ScenarioTrace& a = serial.traces[s];
    const ScenarioTrace& b = parallel.traces[s];
    ASSERT_EQ(a.execs.size(), b.execs.size()) << "scenario " << s;
    for (std::size_t i = 0; i < a.execs.size(); ++i) {
      EXPECT_EQ(a.execs[i].attempt_starts, b.execs[i].attempt_starts);
      EXPECT_EQ(a.execs[i].end, b.execs[i].end);
    }
    ASSERT_EQ(a.txs.size(), b.txs.size()) << "scenario " << s;
    for (std::size_t t = 0; t < a.txs.size(); ++t) {
      EXPECT_EQ(a.txs[t].cond_id, b.txs[t].cond_id);
      EXPECT_EQ(a.txs[t].msg, b.txs[t].msg);
      EXPECT_EQ(a.txs[t].start, b.txs[t].start);
      EXPECT_EQ(a.txs[t].finish, b.txs[t].finish);
    }
    ASSERT_EQ(a.reveals.size(), b.reveals.size()) << "scenario " << s;
    for (std::size_t r = 0; r < a.reveals.size(); ++r) {
      EXPECT_EQ(a.reveals[r].cond_id, b.reveals[r].cond_id);
      EXPECT_EQ(a.reveals[r].at, b.reveals[r].at);
    }
    EXPECT_EQ(a.makespan, b.makespan);
  }
}

// The integer-keyed fold must print exactly the tables of the historical
// string-keyed fold (bench/reference_cond_tables.h) on random instances
// that reach every record kind: frozen processes and messages (the
// fixpoint and sync transmissions), replicated and hybrid plans (several
// copies per row), k 1-2, transparency on and off, and condition
// broadcasts on and off.  A quarter of the instances reuse names (process
// pairs share one, every message is "m"), so distinct row keys render to
// the same row and label and must merge as the string keys did.
TEST(CondScheduler, FoldMatchesReferenceOnRandomInstances) {
  Rng pick(2026);
  int compared = 0;
  int with_frozen = 0;
  int with_replicas = 0;
  int renamed = 0;
  for (int i = 0; i < 200; ++i) {
    TaskGenParams params;
    params.process_count = 5 + static_cast<int>(pick.index(11));
    params.node_count = 2 + static_cast<int>(pick.index(2));
    const double frozen = 0.2 * static_cast<double>(pick.index(3));
    params.frozen_process_fraction = frozen;
    params.frozen_message_fraction = frozen;
    Rng rng(derive_stream_seed(77, static_cast<std::uint64_t>(i)));
    Application app = generate_application(params, rng);
    if (pick.chance(0.25)) {
      for (int p = 0; p < app.process_count(); ++p) {
        app.process(ProcessId{p}).name = "P" + std::to_string(p / 2);
      }
      for (int m = 0; m < app.message_count(); ++m) {
        app.message(MessageId{m}).name = "m";
      }
      ++renamed;
    }
    const Architecture arch = generate_architecture(params);
    const FaultModel model{1 + static_cast<int>(pick.index(2))};
    PolicyAssignment pa =
        greedy_initial(app, arch, model, PolicySpace::kCheckpointingOnly,
                       1 + static_cast<int>(pick.index(3)));
    if (pick.chance(0.5)) {
      replicate_every(app, arch, model, 2 + static_cast<int>(pick.index(3)),
                      pa);
      ++with_replicas;
    }
    CondScheduleOptions opts;
    opts.respect_transparency = pick.chance(0.7);
    opts.schedule_condition_broadcasts = pick.chance(0.7);
    if (frozen > 0 && opts.respect_transparency) ++with_frozen;
    const CondScheduleResult r =
        conditional_schedule(app, arch, pa, model, opts);
    const ScheduleTables ref = reference_build_tables(app, arch, pa, r);
    ASSERT_EQ(r.tables.to_text(arch), ref.to_text(arch)) << "instance " << i;
    ASSERT_EQ(tables_to_json(r.tables, arch), tables_to_json(ref, arch))
        << "instance " << i;
    ++compared;
  }
  EXPECT_EQ(compared, 200);
  EXPECT_GT(with_frozen, 20);
  EXPECT_GT(with_replicas, 50);
  EXPECT_GT(renamed, 25);
}

}  // namespace
}  // namespace ftes
