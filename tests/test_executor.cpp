// Tests of the table-driven execution checker (Section 5.2 run-time side).
#include "sim/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "fixtures.h"
#include "sim/fault_injector.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;

TEST(Executor, AllScenariosPassOnSynthesizedTables) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const ExecutionReport report = check_all_scenarios(f.app, f.assignment, r);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(report.completion, r.wcsl);
}

TEST(Executor, DetectsMissedDeadline) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  f.app.set_deadline(r.wcsl - 1);  // now the worst scenario must fail
  const ExecutionReport report = check_all_scenarios(f.app, f.assignment, r);
  EXPECT_FALSE(report.ok);
  bool mentions_deadline = false;
  for (const std::string& v : report.violations) {
    if (v.find("deadline") != std::string::npos) mentions_deadline = true;
  }
  EXPECT_TRUE(mentions_deadline);
}

TEST(Executor, DetectsTamperedTables) {
  auto f = fig5_app();
  CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // Remove P1's row from N1's table: its activations become orphans.
  r.tables.node_rows[0].erase("P1");
  const ExecutionReport report = check_all_scenarios(f.app, f.assignment, r);
  EXPECT_FALSE(report.ok);
}

TEST(Executor, DetectsBrokenTransparency) {
  auto f = fig5_app();
  // Sabotage: schedule without honouring transparency, then check against
  // the transparency requirement -- the checker must object.
  CondScheduleOptions opts;
  opts.respect_transparency = false;
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model, opts);
  const ExecutionReport report = check_all_scenarios(f.app, f.assignment, r);
  EXPECT_FALSE(report.ok);
}

// --- exact violation strings, one test per kind ------------------------------
//
// Hand-broken tables/traces pin the report wording: fixtures and scripts
// grep these messages, so a rewording must be deliberate.

TEST(ExecutorStrings, NeverCompletes) {
  auto f = fig5_app();
  CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  ScenarioTrace trace = r.traces.front();  // fault-free
  for (ExecTrace& e : trace.execs) {
    if (e.copy.process == f.p1) e.died = true;  // no surviving copy of P1
  }
  const ExecutionReport report =
      execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_FALSE(report.ok);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations.front(),
            "process P1 never completes in scenario " +
                trace.scenario.to_string(f.app));
}

TEST(ExecutorStrings, LocalDeadlineMiss) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const ScenarioTrace& trace = r.traces.front();
  Time p2_end = 0;
  for (const ExecTrace& e : trace.execs) {
    if (e.copy.process == f.p2 && !e.died) p2_end = e.end;
  }
  ASSERT_GT(p2_end, 0);
  f.app.process(f.p2).local_deadline = p2_end - 1;
  const ExecutionReport report =
      execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front(),
            "process P2 misses its local deadline in " +
                trace.scenario.to_string(f.app));
}

TEST(ExecutorStrings, GlobalDeadlineMiss) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // The worst trace misses a deadline one tick below the WCSL.
  const ScenarioTrace* worst = &r.traces.front();
  for (const ScenarioTrace& t : r.traces) {
    if (t.makespan > worst->makespan) worst = &t;
  }
  f.app.set_deadline(worst->makespan - 1);
  const ExecutionReport report =
      execute_scenario(f.app, f.assignment, r, *worst);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front(),
            "deadline missed (" + std::to_string(worst->makespan) + " > " +
                std::to_string(worst->makespan - 1) + ") in scenario " +
                worst->scenario.to_string(f.app));
}

TEST(ExecutorStrings, GuardNotEntailedProcess) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  ScenarioTrace trace = r.traces.front();
  // Shift P1's first activation off its table entry: no entry at the new
  // time, so the quasi-static consistency check must object.
  ExecTrace* p1 = nullptr;
  for (ExecTrace& e : trace.execs) {
    if (e.copy.process == f.p1) p1 = &e;
  }
  ASSERT_NE(p1, nullptr);
  const Time moved = p1->attempt_starts.front() + 1;
  p1->attempt_starts.front() = moved;
  const ExecutionReport report =
      execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front(),
            "activation of P1 at t=" + std::to_string(moved) +
                " has no entailed table entry in scenario " +
                trace.scenario.to_string(f.app));
}

TEST(ExecutorStrings, GuardNotEntailedBus) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  ScenarioTrace trace = r.traces.front();
  TxTrace* data = nullptr;
  for (TxTrace& tx : trace.txs) {
    if (!tx.is_condition && tx.msg == f.m1) data = &tx;
  }
  ASSERT_NE(data, nullptr);
  const Time moved = data->start + 1;
  data->start = moved;
  const ExecutionReport report =
      execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations.front(),
            "bus activation of m1 at t=" + std::to_string(moved) +
                " has no entailed table entry in scenario " +
                trace.scenario.to_string(f.app));
}

TEST(ExecutorStrings, FrozenProcessDivergence) {
  auto f = fig5_app();
  CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // Nudge frozen P3's start in one trace only: two observed starts.
  Time pinned = -1;
  Time moved = -1;
  bool first = true;
  for (ScenarioTrace& trace : r.traces) {
    for (ExecTrace& e : trace.execs) {
      if (e.copy.process != f.p3) continue;
      if (first) {
        pinned = e.start;
        first = false;
      } else if (moved < 0) {
        moved = e.start + 1;
        e.start = moved;
      }
    }
  }
  ASSERT_GE(pinned, 0);
  ASSERT_GE(moved, 0);
  const ExecutionReport report =
      check_all_scenarios(f.app, f.assignment, r);
  EXPECT_FALSE(report.ok);
  const std::string expected = "frozen process P3 starts at both " +
                               std::to_string(pinned) + " and " +
                               std::to_string(moved);
  EXPECT_NE(std::find(report.violations.begin(), report.violations.end(),
                      expected),
            report.violations.end())
      << "missing: " << expected;
}

TEST(ExecutorStrings, FrozenMessageDivergence) {
  auto f = fig5_app();
  CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  Time pinned = -1;
  Time moved = -1;
  bool first = true;
  for (ScenarioTrace& trace : r.traces) {
    for (TxTrace& tx : trace.txs) {
      if (tx.is_condition || tx.msg != f.m2) continue;
      if (first) {
        pinned = tx.start;
        first = false;
      } else if (moved < 0) {
        moved = tx.start + 1;
        tx.start = moved;
      }
    }
  }
  ASSERT_GE(pinned, 0);
  ASSERT_GE(moved, 0);
  const ExecutionReport report =
      check_all_scenarios(f.app, f.assignment, r);
  EXPECT_FALSE(report.ok);
  const std::string expected = "frozen message m2 transmitted at both " +
                               std::to_string(pinned) + " and " +
                               std::to_string(moved);
  EXPECT_NE(std::find(report.violations.begin(), report.violations.end(),
                      expected),
            report.violations.end())
      << "missing: " << expected;
}

// --- guard entailment: the reveal index against the linear scan -------------

// The scan the executor's reveal index replaced, kept as the oracle: a
// literal is entailed at `t` if some reveal at or before `t` (reveals are
// sorted by time) carries its condition and value.
bool scan_known(const Literal& lit, const std::vector<Reveal>& reveals,
                Time t) {
  for (const Reveal& r : reveals) {
    if (r.at > t) break;
    if (r.cond_id == lit.vertex && r.value == lit.faulted) return true;
  }
  return false;
}

bool scan_entailed(const Guard& guard, const ScenarioTrace& trace, Time t) {
  for (const Literal& lit : guard.literals()) {
    if (!scan_known(lit, trace.reveals, t)) return false;
  }
  return true;
}

/// Activations of `trace` that no table entry covers, by the scan.
int scan_unentailed(const Application& app, const PolicyAssignment& pa,
                    const CondScheduleResult& r, const ScenarioTrace& trace) {
  auto matches = [&](const TableRows& rows, const std::string& row,
                     Time start) {
    const auto it = rows.find(row);
    if (it == rows.end()) return false;
    for (const TableEntry& e : it->second) {
      if (e.start == start && scan_entailed(e.guard, trace, start)) {
        return true;
      }
    }
    return false;
  };
  int missing = 0;
  for (const ExecTrace& e : trace.execs) {
    const ProcessPlan& plan = pa.plan(e.copy.process);
    const std::string name = copy_row_name(app.process(e.copy.process).name,
                                           plan, e.copy.copy);
    const TableRows& rows = r.tables.node_rows.at(static_cast<std::size_t>(
        plan.copies.at(static_cast<std::size_t>(e.copy.copy)).node.get()));
    for (Time start : e.attempt_starts) {
      if (!matches(rows, name, start)) ++missing;
    }
  }
  for (const TxTrace& tx : trace.txs) {
    const std::string row = tx.is_condition ? r.tables.conds.label(tx.cond_id)
                                            : app.message(tx.msg).name;
    if (!matches(r.tables.bus_rows, row, tx.start)) ++missing;
  }
  return missing;
}

int unentailed(const ExecutionReport& report) {
  int n = 0;
  for (const std::string& v : report.violations) {
    if (v.find("has no entailed table entry") != std::string::npos) ++n;
  }
  return n;
}

void sort_reveals(std::vector<Reveal>& reveals) {
  std::stable_sort(reveals.begin(), reveals.end(),
                   [](const Reveal& a, const Reveal& b) {
                     return a.at < b.at;
                   });
}

// Hand-built reveals: condition 1 revealed twice with one value, condition
// 2 revealed with both values, conditions 3-4 never revealed (no registry
// issued them).  Every literal at every time answers as the scan does.
TEST(RevealIndex, AnswersAsTheLinearScan) {
  std::vector<Reveal> reveals{{0, false, 5}, {1, true, 5},  {2, false, 8},
                              {1, true, 12}, {2, true, 15}, {0, false, 15}};
  sort_reveals(reveals);
  const RevealIndex index(reveals);
  int known = 0;
  for (int id = -1; id <= 4; ++id) {
    for (bool value : {false, true}) {
      for (Time t = -1; t <= 20; ++t) {
        const Literal lit{id, value};
        EXPECT_EQ(index.known(lit, t), scan_known(lit, reveals, t))
            << "id " << id << " value " << value << " t " << t;
        known += index.known(lit, t) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(known, 0);
  EXPECT_FALSE(index.known(Literal{1, true}, 4));  // revealed after t
  EXPECT_TRUE(index.known(Literal{1, true}, 5));
  EXPECT_TRUE(index.known(Literal{2, true}, 15));  // both values revealed
  EXPECT_TRUE(index.known(Literal{2, false}, 15));
  EXPECT_FALSE(index.known(Literal{4, false}, 20));  // never issued
  EXPECT_FALSE(RevealIndex({}).known(Literal{0, false}, 100));
}

// The same three cases end to end: P1's unconditional first activation is
// rewritten to need a literal the registry never issued, then one the
// fault-free scenario reveals only at P1's end; a second, earlier reveal
// of that value makes it entailed again.  The wording of the violation is
// the pinned one.
TEST(ExecutorEntailment, HandBuiltGuardsAnswerAsTheScan) {
  auto f = fig5_app();
  CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  ScenarioTrace trace = r.traces.front();  // fault-free
  TableEntry* first = nullptr;
  for (TableEntry& e : r.tables.node_rows[0].at("P1")) {
    if (e.start == 0) first = &e;
  }
  ASSERT_NE(first, nullptr);
  ASSERT_TRUE(first->guard.literals().empty());
  const std::string missing = "activation of P1 at t=0 has no entailed table "
                              "entry in scenario " +
                              trace.scenario.to_string(f.app);

  first->guard = Guard::of({Literal{r.tables.conds.size() + 3, false}});
  ExecutionReport report = execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_EQ(report.violations, std::vector<std::string>{missing});
  EXPECT_EQ(unentailed(report), scan_unentailed(f.app, f.assignment, r, trace));

  // F_P1^1 = false is revealed when P1 completes, after t = 0.
  const Reveal* end_of_p1 = nullptr;
  for (const Reveal& rv : trace.reveals) {
    if (r.tables.conds.copy_of(rv.cond_id).process == f.p1) end_of_p1 = &rv;
  }
  ASSERT_NE(end_of_p1, nullptr);
  ASSERT_GT(end_of_p1->at, 0);
  const Reveal late = *end_of_p1;
  first->guard = Guard::of({Literal{late.cond_id, late.value}});
  report = execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_EQ(report.violations, std::vector<std::string>{missing});
  EXPECT_EQ(unentailed(report), scan_unentailed(f.app, f.assignment, r, trace));

  trace.reveals.push_back(Reveal{late.cond_id, late.value, 0});
  sort_reveals(trace.reveals);
  report = execute_scenario(f.app, f.assignment, r, trace);
  EXPECT_TRUE(report.ok);
  EXPECT_EQ(scan_unentailed(f.app, f.assignment, r, trace), 0);
}

// Randomly tightened tables and traces with repeated reveals: the reveal
// index flags exactly the activations the scan flags, in every scenario.
TEST(ExecutorEntailment, RandomGuardsAnswerAsTheScan) {
  auto f = fig5_app();
  const CondScheduleResult base =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const int ids = base.tables.conds.size() + 2;  // two ids never issued
  Rng rng(31);
  int flagged = 0;
  for (int round = 0; round < 40; ++round) {
    CondScheduleResult r = base;
    auto tighten = [&](TableRows& rows) {
      for (auto& [name, entries] : rows) {
        for (TableEntry& e : entries) {
          if (!rng.chance(0.3)) continue;
          const Literal lit{static_cast<int>(rng.index(
                                static_cast<std::size_t>(ids))),
                            rng.chance(0.5)};
          if (!e.guard.contains(Literal{lit.vertex, !lit.faulted})) {
            e.guard.add(lit);
          }
        }
      }
    };
    for (TableRows& rows : r.tables.node_rows) tighten(rows);
    tighten(r.tables.bus_rows);
    for (ScenarioTrace trace : r.traces) {
      if (!trace.reveals.empty() && rng.chance(0.5)) {
        Reveal again = trace.reveals[rng.index(trace.reveals.size())];
        again.at = static_cast<Time>(rng.uniform_int(0, base.wcsl));
        trace.reveals.push_back(again);
        sort_reveals(trace.reveals);
      }
      const int want = scan_unentailed(f.app, f.assignment, r, trace);
      EXPECT_EQ(unentailed(execute_scenario(f.app, f.assignment, r, trace)),
                want)
          << "round " << round;
      flagged += want;
    }
  }
  EXPECT_GT(flagged, 0);
}

// --- deterministic ordering under parallel checking --------------------------

TEST(Executor, ViolationOrderIsThreadCountInvariant) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // Break every scenario at once (deadline below the fault-free makespan)
  // so the report carries many violations across many scenarios.
  f.app.set_deadline(r.traces.front().makespan - 1);

  const ExecutionReport serial =
      check_all_scenarios(f.app, f.assignment, r);
  ASSERT_FALSE(serial.ok);
  ASSERT_GT(serial.violations.size(), 1u);

  ThreadPool pool(4);  // real helpers even on single-core hosts
  ExecCheckOptions options;
  options.threads = 4;
  options.pool = &pool;
  const ExecutionReport parallel =
      check_all_scenarios(f.app, f.assignment, r, options);
  EXPECT_EQ(serial.ok, parallel.ok);
  EXPECT_EQ(serial.completion, parallel.completion);
  EXPECT_EQ(serial.violations, parallel.violations);
}

TEST(FaultInjector, ScenariosRespectBudget) {
  auto f = fig5_app();
  Rng rng(7);
  const auto scenarios =
      random_scenarios(f.app, f.assignment, f.model, 200, rng);
  EXPECT_EQ(scenarios.size(), 200u);
  for (const FaultScenario& s : scenarios) {
    EXPECT_LE(s.total_faults(), f.model.k);
  }
}

TEST(FaultInjector, ExactFaultCount) {
  auto f = fig5_app();
  Rng rng(11);
  for (int n = 0; n <= 2; ++n) {
    const FaultScenario s = random_scenario(f.app, f.assignment, n, rng);
    EXPECT_EQ(s.total_faults(), n);
  }
}

TEST(FaultInjector, HitsOnlyExistingCopies) {
  auto f = fig5_app();
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const FaultScenario s = random_scenario(f.app, f.assignment, 2, rng);
    for (const auto& [ref, count] : s.hits()) {
      ASSERT_GE(ref.process.get(), 0);
      ASSERT_LT(ref.process.get(), f.app.process_count());
      EXPECT_LT(ref.copy, f.assignment.plan(ref.process).copy_count());
      EXPECT_GT(count, 0);
    }
  }
}

// Property: single-fault draws cover *every* copy, roughly uniformly.  The
// chi-squared statistic against the uniform law stays under a very loose
// bound (dof = copies - 1; 40 would be a p < 1e-6 outlier) -- tight enough
// to catch a copy the injector can never hit or hits half as often, loose
// enough to never flake on a fixed seed.
TEST(FaultInjector, SingleFaultCoverageIsRoughlyUniform) {
  auto f = fig5_app();
  Rng rng(17);
  std::map<std::pair<int, int>, int> tally;
  int total_copies = 0;
  for (int p = 0; p < f.app.process_count(); ++p) {
    total_copies += f.assignment.plan(ProcessId{p}).copy_count();
  }
  const int trials = 400 * total_copies;
  for (int t = 0; t < trials; ++t) {
    const FaultScenario s = random_scenario(f.app, f.assignment, 1, rng);
    ASSERT_EQ(s.hits().size(), 1u);
    const CopyRef ref = s.hits().begin()->first;
    ++tally[{ref.process.get(), ref.copy}];
  }
  EXPECT_EQ(static_cast<int>(tally.size()), total_copies)
      << "some copy was never hit";
  const double expected = static_cast<double>(trials) / total_copies;
  double chi2 = 0.0;
  for (const auto& [copy, observed] : tally) {
    const double d = observed - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 40.0);
}

// Property: every batch draw is admissible -- total faults in [0, k] and
// only existing copies are hit -- and the batch exercises the whole range
// of fault counts, 0 and k included.
TEST(FaultInjector, BatchCountsSpanZeroToK) {
  auto f = fig5_app();
  Rng rng(19);
  const auto scenarios =
      random_scenarios(f.app, f.assignment, f.model, 300, rng);
  std::set<int> counts;
  for (const FaultScenario& s : scenarios) {
    ASSERT_GE(s.total_faults(), 0);
    ASSERT_LE(s.total_faults(), f.model.k);
    counts.insert(s.total_faults());
    for (const auto& [ref, count] : s.hits()) {
      ASSERT_LT(ref.copy, f.assignment.plan(ref.process).copy_count());
    }
  }
  EXPECT_TRUE(counts.count(0)) << "no fault-free draw in 300";
  EXPECT_TRUE(counts.count(f.model.k)) << "no full-budget draw in 300";
}

}  // namespace
}  // namespace ftes
