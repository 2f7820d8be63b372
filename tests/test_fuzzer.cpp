// Tests of the adversarial scenario fuzzer (sim/fuzzer.h): clean replay of
// correct tables, thread-count invariance, corrupted-table detection,
// counterexample shrinking, fixture round-trips, and the replay's wording.
#include "sim/fuzzer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "fixtures.h"
#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "sim/executor.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;

struct Synth {
  ::ftes::testing::Fig5 f;
  CondScheduleResult schedule;
};

Synth make_synth() {
  Synth s;
  s.f = fig5_app();
  s.schedule =
      conditional_schedule(s.f.app, s.f.arch, s.f.assignment, s.f.model);
  return s;
}

// --- the monotonicity invariant ----------------------------------------------

// A correct table replays clean under *any* admissible perturbation at
// phase 0: early completions and early fault arrivals only move reveals
// earlier, never later.
TEST(Fuzzer, CorrectTablesSurviveAdmissiblePerturbations) {
  const Synth s = make_synth();
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              s.schedule);
  FuzzOptions options;
  options.trials = 300;
  options.seed = 42;
  const FuzzReport report = fuzzer.fuzz(options);
  EXPECT_EQ(report.trials, 300);
  EXPECT_EQ(report.failing_trials, 0);
  EXPECT_EQ(report.violations, 0);
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.counterexamples.empty());
  EXPECT_EQ(report.first_failing_trial, -1);
  // Early completions can only shorten the makespan.
  EXPECT_LE(report.worst_completion, s.schedule.wcsl);
  EXPECT_GT(report.worst_completion, 0);
}

TEST(Fuzzer, ReportIsThreadCountInvariant) {
  const Synth s = make_synth();
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              s.schedule);
  FuzzOptions serial;
  serial.trials = 120;
  serial.seed = 7;
  const FuzzReport a = fuzzer.fuzz(serial);

  ThreadPool pool(4);  // real helpers even on single-core hosts
  FuzzOptions parallel = serial;
  parallel.threads = 4;
  parallel.pool = &pool;
  const FuzzReport b = fuzzer.fuzz(parallel);

  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.failing_trials, b.failing_trials);
  EXPECT_EQ(a.violations, b.violations);
  EXPECT_EQ(a.violations_by_kind, b.violations_by_kind);
  EXPECT_EQ(a.worst_completion, b.worst_completion);
  EXPECT_EQ(a.first_failing_trial, b.first_failing_trial);
  ASSERT_EQ(a.counterexamples.size(), b.counterexamples.size());
  for (std::size_t i = 0; i < a.counterexamples.size(); ++i) {
    EXPECT_EQ(a.counterexamples[i].trial, b.counterexamples[i].trial);
    EXPECT_EQ(a.counterexamples[i].violations,
              b.counterexamples[i].violations);
  }
}

// --- corrupted tables --------------------------------------------------------

// Moves the first fault-free (empty-guard) entry of some process row
// earlier by `shift`, returning the corruption that describes the flip.
TableCorruption flip_first_entry(CondScheduleResult& broken, Time shift) {
  for (std::size_t node = 0; node < broken.tables.node_rows.size(); ++node) {
    for (auto& [row, entries] : broken.tables.node_rows[node]) {
      for (TableEntry& e : entries) {
        if (!e.guard.literals().empty() || e.start < shift) continue;
        TableCorruption c;
        c.node = static_cast<int>(node);
        c.row = row;
        c.label = e.label;
        c.old_start = e.start;
        c.new_start = e.start - shift;
        apply_corruptions({c}, broken.tables);
        return c;
      }
    }
  }
  ADD_FAILURE() << "no corruptible entry found";
  return {};
}

TEST(Fuzzer, CatchesCorruptedStartAndShrinks) {
  const Synth s = make_synth();
  CondScheduleResult broken = s.schedule;
  // Push some fault-free start earlier than its data can arrive.
  const TableCorruption corruption = flip_first_entry(broken, 20);
  ASSERT_FALSE(corruption.row.empty());

  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              broken);
  FuzzOptions options;
  options.trials = 100;
  options.seed = 5;
  const FuzzReport report = fuzzer.fuzz(options);
  ASSERT_FALSE(report.ok()) << "the fuzzer missed a flipped start";
  ASSERT_FALSE(report.counterexamples.empty());

  // Shrinking kept the failure and produced a minimal perturbation: no
  // leftover jitter vectors unless they are load-bearing.
  const FuzzCounterexample& cx = report.counterexamples.front();
  EXPECT_FALSE(cx.violations.empty());
  const std::vector<FuzzViolation> again = fuzzer.replay(cx.perturbation);
  EXPECT_EQ(again, cx.violations) << "shrunk counterexample must replay";
}

TEST(Fuzzer, ShrinkDropsIrrelevantFaults) {
  const Synth s = make_synth();
  CondScheduleResult broken = s.schedule;
  flip_first_entry(broken, 20);
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              broken);

  // A perturbation that fails even with zero faults: pile on faults and
  // full jitter, then shrink -- everything should fall away.
  FuzzPerturbation fat;
  fat.scenario.add_fault(CopyRef{s.f.p2, 0}, 1);
  fat.scenario.add_fault(CopyRef{s.f.p4, 0}, 1);
  fat.exec_scale.assign(static_cast<std::size_t>(fuzzer.copy_count()), 128);
  ASSERT_FALSE(fuzzer.replay(fat).empty());

  int steps = 0;
  const FuzzPerturbation slim = fuzzer.shrink(fat, &steps);
  EXPECT_GT(steps, 0);
  EXPECT_FALSE(fuzzer.replay(slim).empty());
  EXPECT_EQ(slim.scenario.total_faults(), 0) << "faults were load-bearing?";
  EXPECT_TRUE(slim.exec_scale.empty());
  EXPECT_TRUE(slim.arrival_scale.empty());
  EXPECT_EQ(slim.bus_phase, 0);
}

TEST(Fuzzer, ShrinkReturnsPassingInputUnchanged) {
  const Synth s = make_synth();
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              s.schedule);
  FuzzPerturbation nominal;
  int steps = 99;
  const FuzzPerturbation out = fuzzer.shrink(nominal, &steps);
  EXPECT_EQ(steps, 0);
  EXPECT_EQ(out.scenario.total_faults(), 0);
}

// --- fixtures ----------------------------------------------------------------

TEST(Fuzzer, FixtureRoundTrips) {
  const Synth s = make_synth();
  FuzzFixture fixture;
  fixture.note = "round trip";
  fixture.perturbation.scenario.add_fault(CopyRef{s.f.p1, 0}, 2);
  fixture.perturbation.exec_scale.assign(4, kFuzzScaleOne);
  fixture.perturbation.exec_scale[1] = 77;
  fixture.perturbation.arrival_scale.assign(4, kFuzzScaleOne);
  fixture.perturbation.arrival_scale[0] = 200;
  fixture.perturbation.bus_phase = 3;
  TableCorruption c;
  c.node = 1;
  c.row = "P3";
  c.label = "P3/1";
  c.old_start = 70;
  c.new_start = 40;
  fixture.corruptions.push_back(c);
  TableCorruption erase;
  erase.node = -1;
  erase.row = "m1";
  erase.old_start = 35;
  erase.erase = true;
  fixture.corruptions.push_back(erase);
  fixture.expect = {FuzzKind::kNotReady, FuzzKind::kTableGap};

  const std::string text =
      fixture_to_text(fixture, s.f.app, s.f.assignment);
  std::istringstream in(text);
  const FuzzFixture back = parse_fixture(in, s.f.app, s.f.assignment);

  EXPECT_EQ(back.note, fixture.note);
  EXPECT_EQ(back.perturbation.scenario.hits(),
            fixture.perturbation.scenario.hits());
  EXPECT_EQ(back.perturbation.exec_scale, fixture.perturbation.exec_scale);
  EXPECT_EQ(back.perturbation.arrival_scale,
            fixture.perturbation.arrival_scale);
  EXPECT_EQ(back.perturbation.bus_phase, fixture.perturbation.bus_phase);
  ASSERT_EQ(back.corruptions.size(), 2u);
  EXPECT_EQ(back.corruptions[0].node, 1);
  EXPECT_EQ(back.corruptions[0].row, "P3");
  EXPECT_EQ(back.corruptions[0].label, "P3/1");
  EXPECT_EQ(back.corruptions[0].old_start, 70);
  EXPECT_EQ(back.corruptions[0].new_start, 40);
  EXPECT_FALSE(back.corruptions[0].erase);
  EXPECT_EQ(back.corruptions[1].node, -1);
  EXPECT_TRUE(back.corruptions[1].erase);
  EXPECT_EQ(back.expect, fixture.expect);
}

TEST(Fuzzer, ParseFixtureRejectsGarbage) {
  const Synth s = make_synth();
  {
    std::istringstream in("fault NoSuchProcess 0 1\n");
    EXPECT_THROW((void)parse_fixture(in, s.f.app, s.f.assignment),
                 std::runtime_error);
  }
  {
    std::istringstream in("exec-scale P1 0 999\n");  // scale out of range
    EXPECT_THROW((void)parse_fixture(in, s.f.app, s.f.assignment),
                 std::runtime_error);
  }
  {
    std::istringstream in("expect no-such-kind\n");
    EXPECT_THROW((void)parse_fixture(in, s.f.app, s.f.assignment),
                 std::runtime_error);
  }
}

TEST(Fuzzer, ApplyCorruptionsRejectsStaleSelectors) {
  const Synth s = make_synth();
  CondScheduleResult broken = s.schedule;
  TableCorruption c;
  c.node = 0;
  c.row = "P1";
  c.label = "P1/1";
  c.old_start = 12345;  // no such entry
  EXPECT_THROW(apply_corruptions({c}, broken.tables), std::runtime_error);
}

// End-to-end: corrupt -> fuzz -> shrink -> serialize -> parse -> replay
// reproduces the violation kinds (the regression-fixture life cycle).
TEST(Fuzzer, ShrunkCounterexampleSurvivesFixtureRoundTrip) {
  const Synth s = make_synth();
  CondScheduleResult broken = s.schedule;
  const TableCorruption corruption = flip_first_entry(broken, 20);
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              broken);
  FuzzOptions options;
  options.trials = 60;
  options.seed = 3;
  const FuzzReport report = fuzzer.fuzz(options);
  ASSERT_FALSE(report.counterexamples.empty());
  const FuzzCounterexample& cx = report.counterexamples.front();

  FuzzFixture fixture;
  fixture.perturbation = cx.perturbation;
  fixture.corruptions.push_back(corruption);
  for (const FuzzViolation& v : cx.violations) {
    if (std::find(fixture.expect.begin(), fixture.expect.end(), v.kind) ==
        fixture.expect.end()) {
      fixture.expect.push_back(v.kind);
    }
  }

  const std::string text =
      fixture_to_text(fixture, s.f.app, s.f.assignment);
  std::istringstream in(text);
  const FuzzFixture back = parse_fixture(in, s.f.app, s.f.assignment);

  // Rebuild the broken schedule from the *fixture's* corruption list and
  // replay: every expected kind must reappear.
  CondScheduleResult again = s.schedule;
  apply_corruptions(back.corruptions, again.tables);
  const ScheduleFuzzer replayer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                                again);
  const std::vector<FuzzViolation> violations =
      replayer.replay(back.perturbation);
  for (FuzzKind kind : back.expect) {
    EXPECT_TRUE(std::any_of(
        violations.begin(), violations.end(),
        [&](const FuzzViolation& v) { return v.kind == kind; }))
        << "expected kind lost in round trip: " << to_string(kind);
  }
}

// --- phase offsets -----------------------------------------------------------

// A shifted TDMA round is *inadmissible* (the tables assume phase 0): on a
// tight enough schedule it must surface robustness findings, and they are
// clean kinds (not-ready / deadline-miss), not spurious internal errors.
TEST(Fuzzer, PhaseShiftProbesRobustness) {
  const Synth s = make_synth();
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              s.schedule);
  const Time round = s.f.arch.bus().round_length();
  ASSERT_GT(round, 1);
  FuzzPerturbation shifted;
  shifted.bus_phase = round / 2;
  // Deterministic single replay: phase shifts move physical transmissions
  // later, so either the schedule has slack (clean) or the findings are
  // kNotReady/kDeadlineMiss -- never table gaps or guard violations.
  const std::vector<FuzzViolation> violations = fuzzer.replay(shifted);
  for (const FuzzViolation& v : violations) {
    EXPECT_TRUE(v.kind == FuzzKind::kNotReady ||
                v.kind == FuzzKind::kDeadlineMiss)
        << to_string(v.kind) << ": " << v.message;
  }
}

// --- the replay's wording ----------------------------------------------------

// One test per violation kind pins replay()'s whole list, kind and message,
// for a hand-built corruption or perturbation of the Fig. 5 tables.

/// Replays `p` against Fig. 5's tables after `edit` changed them.
template <typename Edit>
std::vector<FuzzViolation> replay_edited(Edit edit,
                                         const FuzzPerturbation& p = {}) {
  const Synth s = make_synth();
  CondScheduleResult broken = s.schedule;
  edit(broken.tables);
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              broken);
  return fuzzer.replay(p);
}

/// Replays `p` against Fig. 5's tables with `corruptions` applied.
std::vector<FuzzViolation> replay_corrupted(
    const std::vector<TableCorruption>& corruptions,
    const FuzzPerturbation& p = {}) {
  return replay_edited(
      [&](ScheduleTables& t) { apply_corruptions(corruptions, t); }, p);
}

TableCorruption move(int node, const std::string& row,
                     const std::string& label, Time from, Time to) {
  TableCorruption c;
  c.node = node;
  c.row = row;
  c.label = label;
  c.old_start = from;
  c.new_start = to;
  return c;
}

TableCorruption erase(int node, const std::string& row,
                      const std::string& label, Time at) {
  TableCorruption c = move(node, row, label, at, at);
  c.erase = true;
  return c;
}

void expect_violations(const std::vector<FuzzViolation>& got,
                       const std::vector<FuzzViolation>& want) {
  std::string listing;
  for (const FuzzViolation& v : got) {
    listing += std::string(to_string(v.kind)) + ": " + v.message + "\n";
  }
  EXPECT_EQ(got, want) << listing;
}

TEST(FuzzerStrings, NotReady) {
  // P4's fault-free start moved from 45 to 35, before m1 arrives.
  expect_violations(replay_corrupted({move(1, "P4", "P4/1", 45, 35)}),
                    {{FuzzKind::kNotReady,
                      "P4 starts at t=35 before its inputs are ready at t=45"
                      " in scenario {no faults}"}});
  // P1's first recovery moved before its fault is detected.
  FuzzPerturbation p;
  p.scenario.add_fault(CopyRef{ProcessId{0}, 0}, 1);  // P1
  expect_violations(replay_corrupted({move(0, "P1", "P1/2", 35, 33)}, p),
                    {{FuzzKind::kNotReady,
                      "recovery P1/2 fires at t=33 before recovery readiness"
                      " at t=35 in scenario {P1x1}"}});
}

TEST(FuzzerStrings, TableGap) {
  // Every entry of P2's first attempt deleted.
  expect_violations(
      replay_corrupted({erase(0, "P2", "P2/1", 30), erase(0, "P2", "P2/1", 65),
                        erase(0, "P2", "P2/1", 100)}),
      {{FuzzKind::kTableGap,
        "no table entry for attempt P2/1 in scenario {no faults}"},
       {FuzzKind::kGuardNotEntailed,
        "activation of P2 at t=30 has no entailed table entry in scenario"
        " {no faults}"}});
  // The frozen m2's only entry and F_P1^1's only broadcast deleted.
  expect_violations(replay_corrupted({erase(-1, "m2", "m2", 140),
                                      erase(-1, "F_P1^1", "", 30)}),
                    {{FuzzKind::kTableGap,
                      "no table entry for bus transmission F_P1^1 in scenario"
                      " {no faults}"},
                     {FuzzKind::kTableGap,
                      "no table entry for bus transmission m2 in scenario"
                      " {no faults}"},
                     {FuzzKind::kGuardNotEntailed,
                      "bus activation of F_P1^1 at t=30 has no entailed table"
                      " entry in scenario {no faults}"},
                     {FuzzKind::kGuardNotEntailed,
                      "bus activation of m2 at t=140 has no entailed table"
                      " entry in scenario {no faults}"}});
}

TEST(FuzzerStrings, GuardNotEntailed) {
  // P4's fault-free guard also asks for !F_P4^1, which P4 itself reveals.
  const auto tighten = [](ScheduleTables& t) {
    const int f_p4 = t.conds.find(CopyRef{ProcessId{3}, 0}, 1);
    ASSERT_GE(f_p4, 0);
    TableEntry& e = t.node_rows[1].at("P4").front();
    ASSERT_EQ(e.start, 45);
    e.guard.add(Literal{f_p4, false});
  };
  expect_violations(replay_edited(tighten),
                    {{FuzzKind::kGuardNotEntailed,
                      "activation of P4 at t=45 has no entailed table entry"
                      " in scenario {no faults}"}});
}

TEST(FuzzerStrings, Overlap) {
  // P4's fault-free start moved onto P3's, late enough for its inputs.
  expect_violations(replay_corrupted({move(1, "P4", "P4/1", 45, 150)}),
                    {{FuzzKind::kNotReady,
                      "bus transmission F_P4^1 fires at t=75 before its data"
                      " is ready at t=180 in scenario {no faults}"},
                     {FuzzKind::kNotReady,
                      "bus transmission m3 fires at t=165 before its data is"
                      " ready at t=180 in scenario {no faults}"},
                     {FuzzKind::kOverlap,
                      "P4 and P3 overlap on node N2 in scenario {no faults}"}});
  // m1's transmission moved into m2's slot.
  expect_violations(replay_corrupted({move(-1, "m1", "m1", 40, 140)}),
                    {{FuzzKind::kNotReady,
                      "P4 starts at t=45 before its inputs are ready at t=145"
                      " in scenario {no faults}"},
                     {FuzzKind::kOverlap,
                      "bus m1 and bus m2 overlap in scenario {no faults}"}});
}

TEST(FuzzerStrings, FrozenDivergence) {
  // The frozen P3 moved off its pin at 170.
  expect_violations(replay_corrupted({move(1, "P3", "P3/1", 170, 175)}),
                    {{FuzzKind::kNotReady,
                      "bus transmission F_P3^1 fires at t=195 before its data"
                      " is ready at t=200 in scenario {no faults}"},
                     {FuzzKind::kFrozenDivergence,
                      "frozen process P3 starts at t=175 instead of its"
                      " pinned t=170 in scenario {no faults}"}});
  // The frozen m3 moved off its pin at 165.
  expect_violations(replay_corrupted({move(-1, "m3", "m3", 165, 175)}),
                    {{FuzzKind::kNotReady,
                      "P3 starts at t=170 before its inputs are ready at t=180"
                      " in scenario {no faults}"},
                     {FuzzKind::kFrozenDivergence,
                      "frozen message m3 transmitted at t=175 instead of its"
                      " pinned t=165 in scenario {no faults}"}});
}

TEST(FuzzerStrings, SlotMisaligned) {
  // m1's fault-free transmission moved off its sender's slot start.
  expect_violations(replay_corrupted({move(-1, "m1", "m1", 40, 41)}),
                    {{FuzzKind::kNotReady,
                      "P4 starts at t=45 before its inputs are ready at t=55"
                      " in scenario {no faults}"},
                     {FuzzKind::kSlotMisaligned,
                      "bus entry m1 at t=41 is not a slot start of its sender"
                      " in scenario {no faults}"}});
}

TEST(FuzzerStrings, DeadlineMiss) {
  // Correct tables, a deadline below the scenario's makespan.
  Synth s = make_synth();
  s.f.app.set_deadline(200);
  const ScheduleFuzzer fuzzer(s.f.app, s.f.arch, s.f.assignment, s.f.model,
                              s.schedule);
  FuzzPerturbation p;
  p.scenario.add_fault(CopyRef{s.f.p3, 0}, 1);
  expect_violations(fuzzer.replay(p),
                    {{FuzzKind::kDeadlineMiss,
                      "deadline missed (225 > 200) in scenario {P3x1}"}});
}

// --- scale families ----------------------------------------------------------

TEST(ScaleFamilies, GenerateValidLargeGraphs) {
  for (const ScaleFamily& family : scale_families()) {
    Rng rng(2008);
    const TaskGenParams& p = family.params;
    EXPECT_GE(p.process_count, 500) << family.name;
    EXPECT_LE(p.process_count, 1000) << family.name;
    const Application app = generate_application(p, rng);
    const Architecture arch = generate_architecture(p);
    EXPECT_EQ(app.process_count(), p.process_count) << family.name;
    EXPECT_EQ(arch.node_count(), p.node_count) << family.name;
    app.validate(arch);  // throws on a malformed graph
    EXPECT_GT(app.deadline(), 0) << family.name;
  }
}

// The standing fuzz workload end-to-end at the small end of the family:
// generate, map greedily, build tables with k = 1 (the scenario tree is
// Theta(copies^k), so scale instances keep k small), fuzz, expect clean.
TEST(ScaleFamilies, ScaledInstanceFuzzesClean) {
  TaskGenParams params = scale_family_params(500, 2);
  // Trim to a tractable tier-1 instance while keeping the family's shape:
  // the full 500-process run is CI's "scale500 table smoke" step
  // (table_golden --scale500), not a unit test's.
  params.process_count = 60;
  Rng rng(77);
  const Application app = generate_application(params, rng);
  const Architecture arch = generate_architecture(params);
  const FaultModel model{1};
  const PolicyAssignment assignment = greedy_initial(
      app, arch, model, PolicySpace::kReexecutionOnly, 1);
  const CondScheduleResult schedule =
      conditional_schedule(app, arch, assignment, model);
  const ScheduleFuzzer fuzzer(app, arch, assignment, model, schedule);
  FuzzOptions options;
  options.trials = 50;
  options.seed = 9;
  const FuzzReport report = fuzzer.fuzz(options);
  EXPECT_EQ(report.failing_trials, 0)
      << (report.counterexamples.empty()
              ? std::string("?")
              : report.counterexamples.front().violations.front().message);
}

}  // namespace
}  // namespace ftes
