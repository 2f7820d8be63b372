// Property tests of the incremental list scheduler
// (sched/list_scheduler.h): prefix-resume schedules must be bit-identical
// to from-scratch builds for random moves of all three families over every
// reference case -- replicated producers and consumers, release offsets,
// copy-count changes and the 500-process scale instance; the heap-based
// ready/transmission queues must reproduce the historical linear scans
// exactly -- schedules and start-time tie groups -- and the process-level
// ranks the historical copy-graph ranks, up to the 1000-process scale
// families; the static data a resume derives from the base's log must
// equal a full build's; a full build's queue pops stay near its event
// count; resume rejects inconsistent inputs; and the EvalContext counters
// built on top (resumed events, heap pops, rebases) must be thread-count
// invariant.
#include "sched/list_scheduler.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "fixtures.h"
#include "gen/taskgen.h"
#include "opt/eval_context.h"
#include "opt/policy_assignment.h"
#include "reference_list_schedule.h"
#include "util/random.h"

namespace ftes {
namespace {

struct Instance {
  Application app;
  Architecture arch;
};

Instance make_instance(int processes, int nodes, std::uint64_t seed) {
  TaskGenParams params;
  params.process_count = processes;
  params.node_count = nodes;
  Rng rng(seed);
  return Instance{generate_application(params, rng),
                  generate_architecture(params)};
}

ProcessPlan random_move(const Instance& inst, const PolicyAssignment& base,
                        ProcessId pid, const FaultModel& model, Rng& rng) {
  return ftes::testing::random_move(inst.app, inst.arch, base, pid, model,
                                    rng);
}

void expect_identical(const ListSchedule& a, const ListSchedule& b,
                      const char* what, int round) {
  ASSERT_EQ(a.makespan, b.makespan) << what << " round " << round;
  ASSERT_EQ(a.first_copy, b.first_copy) << what << " round " << round;
  ASSERT_EQ(a.copies.size(), b.copies.size()) << what << " round " << round;
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    EXPECT_EQ(a.copies[i].ref, b.copies[i].ref) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].node, b.copies[i].node) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].event, b.copies[i].event) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].start, b.copies[i].start) << what << " copy " << i;
    EXPECT_EQ(a.copies[i].finish, b.copies[i].finish) << what << " copy " << i;
  }
  ASSERT_EQ(a.messages.size(), b.messages.size())
      << what << " round " << round;
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].msg, b.messages[i].msg) << what << " msg " << i;
    EXPECT_EQ(a.messages[i].src_copy, b.messages[i].src_copy)
        << what << " msg " << i;
    EXPECT_EQ(a.messages[i].sender, b.messages[i].sender)
        << what << " msg " << i;
    EXPECT_EQ(a.messages[i].event, b.messages[i].event)
        << what << " msg " << i;
    EXPECT_EQ(a.messages[i].ready, b.messages[i].ready) << what << " msg " << i;
    EXPECT_EQ(a.messages[i].start, b.messages[i].start) << what << " msg " << i;
    EXPECT_EQ(a.messages[i].finish, b.messages[i].finish)
        << what << " msg " << i;
  }
  EXPECT_EQ(a.node_order, b.node_order) << what << " round " << round;
  EXPECT_EQ(a.bus_order, b.bus_order) << what << " round " << round;
}

/// The random instances the reference comparisons share: seed-dependent
/// size, node count, k and policy space.
struct RandomCase {
  Instance inst;
  FaultModel model;
  PolicyAssignment pa;
};

RandomCase random_case(std::uint64_t seed) {
  Instance inst = make_instance(10 + static_cast<int>(seed) * 3,
                                2 + static_cast<int>(seed % 3), seed);
  const FaultModel model{1 + static_cast<int>(seed % 3)};
  PolicyAssignment pa =
      greedy_initial(inst.app, inst.arch, model,
                     seed % 2 == 0 ? PolicySpace::kCheckpointingOnly
                                   : PolicySpace::kFull,
                     8);
  return RandomCase{std::move(inst), model, std::move(pa)};
}

/// random_case(seed) with every third process replicated, so the copy
/// graph has multi-copy producers and consumers.
RandomCase replicated_case(std::uint64_t seed) {
  RandomCase rc = random_case(seed);
  ftes::testing::replicate_every(rc.inst.app, rc.inst.arch, rc.model, 3,
                                 rc.pa);
  return rc;
}

/// One instance of a gen/taskgen scale family under kFull greedy plans,
/// every third process replicated so the copy graph has multi-copy
/// producers and consumers.
RandomCase scale_case(const ScaleFamily& family) {
  Rng rng(2008);
  Instance inst{generate_application(family.params, rng),
                generate_architecture(family.params)};
  const FaultModel model{2};
  PolicyAssignment pa = greedy_initial(inst.app, inst.arch, model,
                                       PolicySpace::kFull, 8);
  ftes::testing::replicate_every(inst.app, inst.arch, model, 3, pa);
  return RandomCase{std::move(inst), model, std::move(pa)};
}

/// Releases every fourth process at a third of `pa`'s schedule length:
/// released copies wait for their release (in their node's `future` ready
/// queue), and the ones ready before it tie at it.
void add_releases(Application& app, const Architecture& arch,
                  const PolicyAssignment& pa) {
  ftes::testing::release_every(app, 4,
                               list_schedule(app, arch, pa).makespan / 3);
}

/// The cases the reference comparisons share: the 12 random instances, the
/// same with every third process replicated, and the 500-process scale
/// instance, each as generated and with releases.  Only replicated ones send
/// one message from several producer copies at equal ready times -- the
/// only situation in which the transmission queue's last tie-break decides.
std::vector<RandomCase> reference_cases() {
  std::vector<RandomCase> cases;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back(random_case(seed));
  }
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    cases.push_back(replicated_case(seed));
  }
  cases.push_back(scale_case(scale_families().front()));  // 500 processes
  const std::size_t generated = cases.size();
  for (std::size_t c = 0; c < generated; ++c) {
    RandomCase released{cases[c].inst, cases[c].model, cases[c].pa};
    add_releases(released.inst.app, released.inst.arch, released.pa);
    cases.push_back(std::move(released));
  }
  return cases;
}

TEST(ListSchedulerIncremental, HeapSchedulerMatchesLinearScanReference) {
  const std::vector<RandomCase> cases = reference_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const RandomCase& rc = cases[c];
    const ListSchedule heap_based = list_schedule(rc.inst.app, rc.inst.arch,
                                                  rc.pa);
    const ListSchedule reference =
        ftes::testing::reference_list_schedule(rc.inst.app, rc.inst.arch,
                                               rc.pa);
    expect_identical(heap_based, reference, "heap-vs-scan",
                     static_cast<int>(c));
  }
}

// The start-time tie groups a checkpoint log records (record_start_ties)
// equal what the linear scan sees.  They are exactly what the per-node
// queues enumerate node by node.
TEST(ListSchedulerIncremental, TieGroupsMatchLinearScanReference) {
  const std::vector<RandomCase> cases = reference_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const RandomCase& rc = cases[c];
    ScheduleCheckpointLog log;
    (void)list_schedule(rc.inst.app, rc.inst.arch, rc.pa, log);
    ftes::testing::ReferenceTrace trace;
    (void)ftes::testing::reference_list_schedule(rc.inst.app, rc.inst.arch,
                                                 rc.pa, &trace);
    ASSERT_EQ(log.ties.size(), trace.ties.size()) << "case " << c;
    for (std::size_t i = 0; i < log.ties.size(); ++i) {
      EXPECT_EQ(log.ties[i].event, trace.ties[i].event)
          << "case " << c << " tie " << i;
      EXPECT_EQ(log.ties[i].winner, trace.ties[i].winner)
          << "case " << c << " tie " << i;
      EXPECT_EQ(log.ties[i].contenders, trace.ties[i].contenders)
          << "case " << c << " tie " << i;
    }
  }
}

// Churn bound: a full build pops each ready copy at most twice (once when
// its node's free time reaches its bound, once when it is placed) and each
// transmission once -- no entry is re-keyed when a placement moves its
// node's free time.  The full build is a resume of the base against itself
// with a source process as the moved one: a source is ready at event 0, so
// nothing is restored, and the stats expose the pops.
TEST(ListSchedulerIncremental, FullBuildQueuePopsStayNearEventCount) {
  const RandomCase rc = scale_case(scale_families().front());
  ScheduleCheckpointLog log;
  (void)list_schedule(rc.inst.app, rc.inst.arch, rc.pa, log);
  const ProcessId source = rc.inst.app.topological_order().front();
  ASSERT_TRUE(rc.inst.app.inputs(source).empty());
  ListScheduleResumeStats stats;
  (void)list_schedule_resume(rc.inst.app, rc.inst.arch, rc.pa, log, rc.pa,
                             source, &stats);
  EXPECT_FALSE(stats.resumed);
  EXPECT_EQ(stats.events_replayed, stats.events_total);
  EXPECT_LE(2 * stats.heap_pops, 3 * stats.events_total)
      << stats.heap_pops << " pops for " << stats.events_total << " events";
}

// The process-level rank pass equals the copy-graph longest remaining path
// it replaced: on the random instances as generated and with replicas
// added, and on one instance of every scale family (500, 750 and 1000
// processes).
TEST(ListSchedulerIncremental, ProcessLevelRanksMatchCopyGraphReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RandomCase rc = random_case(seed);
    EXPECT_EQ(partial_critical_path_ranks(rc.inst.app, rc.inst.arch, rc.pa),
              ftes::testing::reference_copy_ranks(rc.inst.app, rc.inst.arch,
                                                  rc.pa))
        << "seed " << seed;
    const RandomCase rep = replicated_case(seed);
    EXPECT_EQ(
        partial_critical_path_ranks(rep.inst.app, rep.inst.arch, rep.pa),
        ftes::testing::reference_copy_ranks(rep.inst.app, rep.inst.arch,
                                            rep.pa))
        << "seed " << seed << " with replicas";
  }
  for (const ScaleFamily& family : scale_families()) {
    const RandomCase rc = scale_case(family);
    EXPECT_GT(rc.pa.plan(ProcessId{0}).copy_count(), 1) << family.name;
    EXPECT_EQ(partial_critical_path_ranks(rc.inst.app, rc.inst.arch, rc.pa),
              ftes::testing::reference_copy_ranks(rc.inst.app, rc.inst.arch,
                                                  rc.pa))
        << family.name;
  }
}

// Random moves of all three families over every reference case, each
// resumed from the base's log and compared with a from-scratch build of the
// candidate; every 13th move is accepted and the base log rebuilt from
// scratch, so later moves resume against fresh bases.
TEST(ListSchedulerIncremental, ResumeMatchesFullRebuildForRandomMoves) {
  const std::vector<RandomCase> cases = reference_cases();
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const RandomCase& rc = cases[c];
    SCOPED_TRACE(::testing::Message() << "case " << c);
    PolicyAssignment base = rc.pa;
    ScheduleCheckpointLog log;
    (void)list_schedule(rc.inst.app, rc.inst.arch, base, log);
    const int moves = rc.inst.app.process_count() > 100 ? 20 : 60;
    Rng rng(99 + c);
    for (int move = 0; move < moves; ++move) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng.index(static_cast<std::size_t>(rc.inst.app.process_count())))};
      PolicyAssignment candidate = base;
      candidate.plan(pid) = random_move(rc.inst, base, pid, rc.model, rng);

      ListScheduleResumeStats stats;
      const ListSchedule resumed = list_schedule_resume(
          rc.inst.app, rc.inst.arch, base, log, candidate, pid, &stats);
      const ListSchedule full =
          list_schedule(rc.inst.app, rc.inst.arch, candidate);
      expect_identical(resumed, full, "resume-vs-full", move);
      EXPECT_EQ(stats.events_total,
                stats.events_resumed + stats.events_replayed);

      if (move % 13 == 0) {
        base = std::move(candidate);
        (void)list_schedule(rc.inst.app, rc.inst.arch, base, log);
      }
    }
  }
}

/// Gives node n's TDMA slot the length 2 + 3n, so that the bus term of a
/// copy's rank (the worst-case bus time of its process's heaviest output
/// from its node) depends on the node: on the generated uniform buses every
/// node has the same bus term.
void vary_slot_lengths(Architecture& arch) {
  std::vector<TdmaSlot> slots;
  for (const NodeId n : arch.node_ids()) {
    slots.push_back(TdmaSlot{n, 2 + 3 * static_cast<Time>(n.get())});
  }
  arch.set_bus(TdmaBus::from_slots(std::move(slots)));
}

/// The bus terms of process `pid`'s copies recorded in `log`: each copy's
/// own rank term minus its duration.
std::vector<Time> bus_terms(const ScheduleCheckpointLog& log, ProcessId pid) {
  std::vector<Time> terms;
  const ListSchedule& sched = log.schedule;
  for (int v = sched.first_copy[static_cast<std::size_t>(pid.get())];
       v < sched.first_copy[static_cast<std::size_t>(pid.get()) + 1]; ++v) {
    const ScheduledCopy& sc = sched.copies[static_cast<std::size_t>(v)];
    terms.push_back(log.own_rank[static_cast<std::size_t>(v)] -
                    (sc.finish - sc.start));
  }
  return terms;
}

// The static data a resume derives from the base's log -- per copy its
// duration and rank, per process its dependency count -- equals a full
// build's, for random moves of all three families over every reference case
// and again on buses whose slot lengths differ per node (so remaps change
// the bus term).  A quarter of the moves at k >= 2 switch to a hybrid plan;
// those and the replication switches change the copy count.  Every 7th move
// is accepted, so later moves derive from fresh bases.
TEST(ListSchedulerIncremental, DerivedStaticDataMatchesFullBuild) {
  std::vector<RandomCase> cases = reference_cases();
  const std::size_t uniform_buses = cases.size();
  for (std::size_t c = 0; c < uniform_buses; ++c) {
    RandomCase varied{cases[c].inst, cases[c].model, cases[c].pa};
    vary_slot_lengths(varied.inst.arch);
    cases.push_back(std::move(varied));
  }
  int copy_count_changes = 0;
  int hybrid_moves = 0;
  int bus_term_changes = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const RandomCase& rc = cases[c];
    const Application& app = rc.inst.app;
    const Architecture& arch = rc.inst.arch;
    SCOPED_TRACE(::testing::Message() << "case " << c);
    PolicyAssignment base = rc.pa;
    ScheduleCheckpointLog log;
    (void)list_schedule(app, arch, base, log);
    const int moves = app.process_count() > 100 ? 20 : 40;
    Rng rng(7 + c);
    for (int move = 0; move < moves; ++move) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng.index(static_cast<std::size_t>(app.process_count())))};
      PolicyAssignment candidate = base;
      if (rc.model.k >= 2 && rng.index(4) == 0) {
        ProcessPlan plan = make_hybrid_plan(
            rc.model.k,
            1 + static_cast<int>(rng.index(
                    static_cast<std::size_t>(rc.model.k) - 1)),
            1 + static_cast<int>(rng.uniform_int(0, 5)));
        std::vector<NodeId> allowed;
        for (const NodeId n : arch.node_ids()) {
          if (app.process(pid).can_run_on(n)) allowed.push_back(n);
        }
        for (CopyPlan& cp : plan.copies) {
          cp.node = allowed[rng.index(allowed.size())];
        }
        candidate.plan(pid) = std::move(plan);
        ++hybrid_moves;
      } else {
        candidate.plan(pid) = random_move(rc.inst, base, pid, rc.model, rng);
      }
      copy_count_changes += candidate.plan(pid).copy_count() !=
                            base.plan(pid).copy_count();

      const ScheduleStaticData derived =
          derive_static_data(app, arch, base, log, candidate, pid);
      EXPECT_EQ(derived.rank, partial_critical_path_ranks(app, arch, candidate))
          << "move " << move;
      ScheduleCheckpointLog fresh;
      const ListSchedule& full = list_schedule(app, arch, candidate, fresh);
      ASSERT_EQ(derived.duration.size(), full.copies.size()) << "move " << move;
      for (std::size_t v = 0; v < full.copies.size(); ++v) {
        EXPECT_EQ(derived.duration[v],
                  full.copies[v].finish - full.copies[v].start)
            << "move " << move << " copy " << v;
      }
      EXPECT_EQ(derived.deps, fresh.deps) << "move " << move;
      bus_term_changes += bus_terms(log, pid) != bus_terms(fresh, pid);

      if (move % 7 == 0) {
        base = std::move(candidate);
        log = std::move(fresh);
      }
    }
  }
  EXPECT_GT(copy_count_changes, 0);
  EXPECT_GT(hybrid_moves, 0);
  EXPECT_GT(bus_term_changes, 0);
}

TEST(ListSchedulerIncremental, ResumeActuallySkipsEventsForSinkMoves) {
  const Instance inst = make_instance(30, 3, 77);
  const FaultModel model{2};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  ScheduleCheckpointLog log;
  (void)list_schedule(inst.app, inst.arch, base, log);

  // A checkpoint flip on the last process in topological order affects only
  // the tail of the event sequence; a healthy log must resume past a
  // non-trivial prefix.
  const ProcessId pid = inst.app.topological_order().back();
  PolicyAssignment candidate = base;
  candidate.plan(pid).copies[0].checkpoints =
      candidate.plan(pid).copies[0].checkpoints == 1 ? 2 : 1;
  ListScheduleResumeStats stats;
  const ListSchedule resumed = list_schedule_resume(
      inst.app, inst.arch, base, log, candidate, pid, &stats);
  expect_identical(resumed, list_schedule(inst.app, inst.arch, candidate),
                   "sink-move", 0);
  EXPECT_TRUE(stats.resumed);
  EXPECT_GT(stats.events_resumed, 0u);
  EXPECT_GT(stats.heap_pops, 0u);
}

// list_schedule_resume rejects inconsistent inputs with
// std::invalid_argument, as list_schedule does, instead of indexing out of
// bounds: a moved id outside [0, P), a base of another process count, and
// a log recorded from another copy layout than the base's or on another
// node count, or whose static data is missing or sized for another layout.
TEST(ListSchedulerIncremental, ResumeRejectsMovedIdOutOfRange) {
  const Instance inst = make_instance(12, 2, 7);
  const FaultModel model{2};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  ScheduleCheckpointLog log;
  (void)list_schedule(inst.app, inst.arch, base, log);
  EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, base, log, base,
                                          ProcessId{40}),
               std::invalid_argument);
  EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, base, log, base,
                                          ProcessId{-1}),
               std::invalid_argument);
}

TEST(ListSchedulerIncremental, ResumeRejectsBaseOfAnotherProcessCount) {
  const Instance inst = make_instance(12, 2, 7);
  const FaultModel model{2};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  ScheduleCheckpointLog log;
  (void)list_schedule(inst.app, inst.arch, base, log);
  for (const int processes : {11, 13}) {
    const Instance other = make_instance(processes, 2, 7);
    const PolicyAssignment other_base = greedy_initial(
        other.app, other.arch, model, PolicySpace::kCheckpointingOnly, 8);
    EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, other_base,
                                            log, base, ProcessId{0}),
                 std::invalid_argument)
        << processes << " processes";
  }
}

TEST(ListSchedulerIncremental, ResumeRejectsLogOfAnotherCopyLayout) {
  const Instance inst = make_instance(12, 2, 7);
  const FaultModel model{2};
  const PolicyAssignment fewer = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  PolicyAssignment more = fewer;
  ftes::testing::replicate_every(inst.app, inst.arch, model, 2, more);
  ScheduleCheckpointLog log;
  (void)list_schedule(inst.app, inst.arch, fewer, log);
  EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, more, log, more,
                                          ProcessId{0}),
               std::invalid_argument);
  ScheduleCheckpointLog empty;
  EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, fewer, empty,
                                          fewer, ProcessId{0}),
               std::invalid_argument);
  ScheduleCheckpointLog wider;
  (void)list_schedule(inst.app, Architecture::homogeneous(3, 5), fewer, wider);
  EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, fewer, wider,
                                          fewer, ProcessId{0}),
               std::invalid_argument);

  // The schedule matches, but the static data a resume derives from is
  // missing or sized for another layout.
  ScheduleCheckpointLog replicated;
  (void)list_schedule(inst.app, inst.arch, more, replicated);
  std::vector<ScheduleCheckpointLog> broken(5, log);
  broken[0].own_rank.clear();
  broken[1].deps.clear();
  broken[2].rank_order.clear();
  broken[3].own_rank = replicated.own_rank;
  broken[4].deps.push_back(0);
  for (std::size_t i = 0; i < broken.size(); ++i) {
    EXPECT_THROW((void)list_schedule_resume(inst.app, inst.arch, fewer,
                                            broken[i], fewer, ProcessId{0}),
                 std::invalid_argument)
        << "broken log " << i;
    EXPECT_THROW((void)derive_static_data(inst.app, inst.arch, fewer,
                                          broken[i], fewer, ProcessId{0}),
                 std::invalid_argument)
        << "broken log " << i;
  }
  EXPECT_NO_THROW((void)list_schedule_resume(inst.app, inst.arch, fewer, log,
                                             fewer, ProcessId{0}));
}

// The moved process's copies are the only ones a resume computes, with a
// full build's checks: a candidate of another process count (before its
// plan is read), a plan without copies, an unmapped copy and a copy on a
// node its process cannot run on are all rejected.
TEST(ListSchedulerIncremental, ResumeRejectsInvalidMovedPlan) {
  const ftes::testing::Fig3 f = ftes::testing::fig3_app();
  const Architecture arch = Architecture::homogeneous(2, 5);
  PolicyAssignment base =
      uniform_assignment(f.app, make_checkpointing_plan(1, 1));
  for (int i = 0; i < f.app.process_count(); ++i) {
    base.plan(ProcessId{i}).copies[0].node = NodeId{0};
  }
  ScheduleCheckpointLog log;
  (void)list_schedule(f.app, arch, base, log);

  std::vector<PolicyAssignment> invalid(3, base);
  invalid[0].plan(f.p3).copies.clear();
  invalid[1].plan(f.p3).copies[0].node = NodeId{};
  invalid[2].plan(f.p3).copies[0].node = NodeId{1};  // P3 cannot run on N2
  for (std::size_t i = 0; i < invalid.size(); ++i) {
    EXPECT_THROW((void)list_schedule_resume(f.app, arch, base, log,
                                            invalid[i], f.p3),
                 std::invalid_argument)
        << "candidate " << i;
  }
  // P5, the last process, has no plan in a candidate one process short.
  const PolicyAssignment shorter(f.app.process_count() - 1);
  EXPECT_THROW((void)list_schedule_resume(f.app, arch, base, log, shorter,
                                          f.p5),
               std::invalid_argument);
}

TEST(ListSchedulerIncremental, EvalContextReportsResumes) {
  const Instance inst = make_instance(24, 3, 5);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // Evaluate one move and rebase onto exactly that move: the new base's own
  // outcome must be the evaluated move's.
  const ProcessId pid = inst.app.topological_order().back();
  ProcessPlan plan = base.plan(pid);
  plan.copies[0].checkpoints = plan.copies[0].checkpoints == 1 ? 2 : 1;
  const EvalContext::Outcome moved = eval.evaluate_move(pid, plan);

  PolicyAssignment accepted = base;
  accepted.plan(pid) = plan;
  eval.rebase(accepted);
  const EvalContext::Outcome rebased = eval.evaluate_base();
  EXPECT_EQ(moved.makespan, rebased.makespan);
  EXPECT_EQ(moved.cost, rebased.cost);

  const EvalStats stats = eval.stats();
  EXPECT_EQ(stats.ls_resumes + stats.ls_full_builds, 1);
  EXPECT_GT(stats.ls_events_total, 0);
  EXPECT_GT(stats.heap_pops, 0);
  // The rebase must leave the evaluator fully usable.
  const EvalContext::Outcome after = eval.evaluate_move(pid, base.plan(pid));
  PolicyAssignment back = accepted;
  back.plan(pid) = base.plan(pid);
  EXPECT_EQ(after.makespan,
            evaluate_wcsl(inst.app, inst.arch, back, model).makespan);
}

TEST(ListSchedulerIncremental, OptimizerCountersAreThreadCountInvariant) {
  const Instance inst = make_instance(20, 3, 31);
  const FaultModel model{3};
  OptimizeOptions opts;
  opts.iterations = 25;
  opts.neighborhood = 8;
  opts.seed = 42;

  auto run = [&](int threads) {
    OptimizeOptions o = opts;
    o.threads = threads;
    return optimize_policy_and_mapping(inst.app, inst.arch, model, o);
  };
  const OptimizeResult serial = run(1);
  const OptimizeResult parallel = run(4);
  EXPECT_EQ(serial.wcsl, parallel.wcsl);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  EXPECT_EQ(serial.eval_stats.ls_resumes, parallel.eval_stats.ls_resumes);
  EXPECT_EQ(serial.eval_stats.ls_events_resumed,
            parallel.eval_stats.ls_events_resumed);
  EXPECT_EQ(serial.eval_stats.ls_events_total,
            parallel.eval_stats.ls_events_total);
  EXPECT_EQ(serial.eval_stats.heap_pops, parallel.eval_stats.heap_pops);
  EXPECT_EQ(serial.eval_stats.rebases, parallel.eval_stats.rebases);
  for (int i = 0; i < inst.app.process_count(); ++i) {
    EXPECT_EQ(serial.assignment.plan(ProcessId{i}),
              parallel.assignment.plan(ProcessId{i}))
        << "process " << i;
  }
}

}  // namespace
}  // namespace ftes
