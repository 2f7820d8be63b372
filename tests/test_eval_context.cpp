// Tests of the incremental evaluation context (opt/eval_context.h): move
// evaluation over resumed schedules, with the WCSL rows of the replayed
// events computed at commit, must be bit-identical to a from-scratch
// evaluation for every move family, cost included, thread-safe under the
// parallel neighborhood evaluation, and allocation-free once warm.
#include "opt/eval_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fixtures.h"
#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "reference_wcsl.h"
#include "sched/list_scheduler.h"
#include "sched/wcsl.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

/// Heap allocations of this binary: calls of the global operator new (all
/// variants but the over-aligned ones, which nothing here uses), counted
/// by the replacements at the end of this file -- or, in a sanitizer
/// build, whose runtime owns operator new, every allocation, counted by
/// the runtime's malloc hook.
std::atomic<long long> g_allocations{0};

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define FTES_SANITIZER_RUNTIME 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define FTES_SANITIZER_RUNTIME 1
#endif

#ifdef FTES_SANITIZER_RUNTIME
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));
const int g_hooks_installed = __sanitizer_install_malloc_and_free_hooks(
    [](const volatile void*, std::size_t) {
      g_allocations.fetch_add(1, std::memory_order_relaxed);
    },
    [](const volatile void*) {});
#endif

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

/// The suite's moves really resumed the WCSL pass: some DP rows came from
/// the base, some moves started at event 0, and the DP-row counters agree
/// with the schedule layer's (every resumed event reuses its row).
void expect_rows_reused(const EvalStats& s) {
  EXPECT_GT(s.dp_vertices_reused, 0);
  EXPECT_GT(s.ls_full_builds, 0) << "no move started at event 0";
  EXPECT_EQ(s.dp_vertices_reused, s.ls_events_resumed);
  EXPECT_EQ(s.dp_vertices_total, s.ls_events_total);
}

/// `candidate`'s outcome from scratch: WCSL makespan and assignment_cost.
EvalContext::Outcome full_outcome(const Instance& inst,
                                  const PolicyAssignment& candidate,
                                  const FaultModel& model) {
  return EvalContext::Outcome{
      evaluate_wcsl(inst.app, inst.arch, candidate, model).makespan,
      assignment_cost(inst.app, inst.arch, candidate, model)};
}

/// Evaluates one move and checks it against a from-scratch evaluation;
/// returns the move's resume point (events restored from the base).
long long expect_exact_move(EvalContext& eval, const Instance& inst,
                            const PolicyAssignment& base, ProcessId pid,
                            const ProcessPlan& plan, const FaultModel& model,
                            const std::string& what) {
  PolicyAssignment candidate = base;
  candidate.plan(pid) = plan;
  const EvalContext::Outcome full = full_outcome(inst, candidate, model);
  const EvalStats before = eval.stats();
  const EvalContext::Outcome out = eval.evaluate_move(pid, plan);
  EXPECT_EQ(out.makespan, full.makespan) << what;
  EXPECT_EQ(out.cost, full.cost) << what;
  return eval.stats().since(before).dp_vertices_reused;
}

/// A random move of `pid` (tests/fixtures.h).
ProcessPlan random_move(const Instance& inst, const PolicyAssignment& base,
                        ProcessId pid, const FaultModel& model, Rng& rng) {
  return ftes::testing::random_move(inst.app, inst.arch, base, pid, model,
                                    rng);
}

// Every third process gets a local deadline at ~60% of its base worst-case
// finish, so most candidates miss some and pay the soft penalty: costs
// from evaluate_move and evaluate_base must equal assignment_cost's.
TEST(EvalContext, IncrementalMatchesFullForRandomMoves) {
  Instance inst = make_instance(18, 3, 77);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  const WcslResult base_wcsl = evaluate_wcsl(inst.app, inst.arch, base, model);
  for (int i = 0; i < inst.app.process_count(); i += 3) {
    inst.app.process(ProcessId{i}).local_deadline =
        base_wcsl.process_finish[static_cast<std::size_t>(i)] * 3 / 5;
  }
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);
  ASSERT_EQ(eval.evaluate_base().cost,
            assignment_cost(inst.app, inst.arch, base, model));

  Rng rng(4242);
  int penalized = 0;
  for (int move = 0; move < 150; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, pid, model, rng);

    PolicyAssignment candidate = base;
    candidate.plan(pid) = plan;
    const WcslResult full =
        evaluate_wcsl(inst.app, inst.arch, candidate, model);
    const Time full_cost =
        assignment_cost(inst.app, inst.arch, candidate, model);

    const EvalContext::Outcome incremental = eval.evaluate_move(pid, plan);
    ASSERT_EQ(incremental.makespan, full.makespan) << "move " << move;
    ASSERT_EQ(incremental.cost, full_cost) << "move " << move;
    if (incremental.cost > incremental.makespan) ++penalized;

    // Occasionally accept the move so later moves run against fresh bases.
    if (move % 17 == 0) {
      base = std::move(candidate);
      eval.rebase(base);
      ASSERT_EQ(eval.evaluate_base().cost, full_cost) << "move " << move;
    }
  }
  EXPECT_GT(penalized, 0) << "no move paid a local-deadline penalty";
  expect_rows_reused(eval.stats());
}

/// Random moves of `base` through evaluate_move, each checked against the
/// historical Digraph-based analysis (bench/reference_wcsl.h) of the
/// candidate's from-scratch schedule; every seventh move is accepted.
/// Adds the evaluator's counters to `counters`.
void expect_moves_match_reference(const Instance& inst, PolicyAssignment base,
                                  const FaultModel& model, int moves,
                                  std::uint64_t seed, EvalStats& counters) {
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);
  Rng rng(seed);
  for (int move = 0; move < moves; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, pid, model, rng);
    PolicyAssignment candidate = base;
    candidate.plan(pid) = plan;
    const WcslResult ref = ftes::testing::reference_worst_case_schedule_length(
        inst.app, inst.arch, candidate, model,
        list_schedule(inst.app, inst.arch, candidate));
    // Cost = makespan + the soft local-deadline penalty (assignment_cost).
    Time ref_cost = ref.makespan;
    for (int i = 0; i < inst.app.process_count(); ++i) {
      const Process& p = inst.app.process(ProcessId{i});
      const Time miss =
          p.local_deadline
              ? ref.process_finish[static_cast<std::size_t>(i)] -
                    *p.local_deadline
              : 0;
      if (miss > 0) ref_cost += 10 * miss;
    }
    const EvalContext::Outcome out = eval.evaluate_move(pid, plan);
    ASSERT_EQ(out.makespan, ref.makespan) << "seed " << seed << " move "
                                          << move;
    ASSERT_EQ(out.cost, ref_cost) << "seed " << seed << " move " << move;
    if (move % 7 == 0) {
      base = std::move(candidate);
      eval.rebase(base);
    }
  }
  counters.add(eval.stats());
}

// The move evaluator against the Digraph reference: random instances with
// replicas, a 500-process scale instance, and a co-located
// producer/consumer pair whose edge appears twice in the consumer's
// predecessor multiset.
TEST(EvalContext, IncrementalMatchesDigraphReference) {
  EvalStats random;
  EvalStats other;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = make_instance(10 + 4 * static_cast<int>(seed),
                                        2 + static_cast<int>(seed % 3), seed);
    const FaultModel model{1 + static_cast<int>(seed % 3)};
    PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                           PolicySpace::kFull, 8);
    ftes::testing::replicate_every(inst.app, inst.arch, model, 3, base);
    expect_moves_match_reference(inst, std::move(base), model, 60, seed,
                                 random);
  }
  expect_rows_reused(random);
  {
    Rng rng(2008);
    const TaskGenParams params = scale_families().front().params;
    const Instance inst{generate_application(params, rng),
                        generate_architecture(params)};
    const FaultModel model{1};
    PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                           PolicySpace::kFull, 8);
    ftes::testing::replicate_every(inst.app, inst.arch, model, 3, base);
    expect_moves_match_reference(inst, std::move(base), model, 15, 500, other);
  }
  {
    // A -> B back to back on N1 (B's predecessors: A twice), A -> C and
    // B -> D so moves of C and D keep the pair intact.
    Instance inst{Application{}, Architecture::homogeneous(2, 5)};
    Application& app = inst.app;
    const ProcessId a =
        app.add_process("A", {{NodeId{0}, 40}, {NodeId{1}, 40}}, 2, 2, 2);
    const ProcessId b =
        app.add_process("B", {{NodeId{0}, 30}, {NodeId{1}, 30}}, 2, 2, 2);
    const ProcessId c =
        app.add_process("C", {{NodeId{0}, 20}, {NodeId{1}, 20}}, 2, 2, 2);
    const ProcessId d =
        app.add_process("D", {{NodeId{0}, 25}, {NodeId{1}, 25}}, 2, 2, 2);
    app.connect(a, b);
    app.connect(a, c);
    app.connect(b, d);
    app.set_deadline(10000);
    const FaultModel model{2};
    PolicyAssignment base =
        uniform_assignment(app, make_checkpointing_plan(model.k, 1));
    for (const ProcessId p : {a, b, c, d}) {
      base.plan(p).copies[0].node = NodeId{0};
    }
    const ListSchedule sched = list_schedule(app, inst.arch, base);
    const WcslDag dag = build_wcsl_dag(app, inst.arch, base, model.k, sched);
    const int event_a = sched.copies[static_cast<std::size_t>(a.get())].event;
    const WcslGraph::Range preds = dag.g.predecessors(
        sched.copies[static_cast<std::size_t>(b.get())].event);
    ASSERT_EQ(std::vector<int>(preds.begin(), preds.end()),
              (std::vector<int>{event_a, event_a}));
    expect_moves_match_reference(inst, std::move(base), model, 40, 99, other);
  }
}

// The second pass of the same moves through evaluate_move and
// fault_free_makespan, on the workspace the first pass grew, allocates
// nothing: no plan copy, no scheduler buffer, no row array.  Replicas,
// hybrids and local deadlines make the moves change copy counts and read
// process finishes.
TEST(EvalContext, WarmMoveEvaluationAllocatesNothing) {
#ifdef FTES_SANITIZER_RUNTIME
  ASSERT_NE(g_hooks_installed, 0);
#endif
  Instance inst = make_instance(30, 3, 17);
  const FaultModel model{3};
  PolicyAssignment base =
      greedy_initial(inst.app, inst.arch, model, PolicySpace::kFull, 8);
  ftes::testing::replicate_every(inst.app, inst.arch, model, 3, base);
  const WcslResult base_wcsl = evaluate_wcsl(inst.app, inst.arch, base, model);
  for (int i = 0; i < inst.app.process_count(); i += 4) {
    inst.app.process(ProcessId{i}).local_deadline =
        base_wcsl.process_finish[static_cast<std::size_t>(i)] * 3 / 5;
  }
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);
  Rng rng(5);
  std::vector<std::pair<ProcessId, ProcessPlan>> moves;
  for (int move = 0; move < 40; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    moves.emplace_back(pid, random_move(inst, base, pid, model, rng));
  }
  std::vector<EvalContext::Outcome> outcomes;
  std::vector<Time> makespans;
  outcomes.reserve(moves.size());
  makespans.reserve(moves.size());
  for (const auto& [pid, plan] : moves) {
    outcomes.push_back(eval.evaluate_move(pid, plan));
    makespans.push_back(eval.fault_free_makespan(pid, plan));
  }
  const long long before = g_allocations.load();
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const EvalContext::Outcome out =
        eval.evaluate_move(moves[i].first, moves[i].second);
    const Time makespan =
        eval.fault_free_makespan(moves[i].first, moves[i].second);
    EXPECT_EQ(out.makespan, outcomes[i].makespan) << "move " << i;
    EXPECT_EQ(out.cost, outcomes[i].cost) << "move " << i;
    EXPECT_EQ(makespan, makespans[i]) << "move " << i;
  }
  EXPECT_EQ(g_allocations.load() - before, 0);
  EXPECT_GT(eval.stats().dp_vertices_reused, 0);
}

TEST(EvalContext, RebaseOutcomeMatchesFullEvaluation) {
  const Instance inst = make_instance(14, 2, 5);
  const FaultModel model{3};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);
  const EvalContext::Outcome out = eval.evaluate_base();
  EXPECT_EQ(out.makespan,
            evaluate_wcsl(inst.app, inst.arch, base, model).makespan);
  EXPECT_EQ(out.cost, assignment_cost(inst.app, inst.arch, base, model));
}

TEST(EvalContext, FaultFreeMakespanMatchesListSchedule) {
  const Instance inst = make_instance(16, 3, 21);
  const FaultModel model{0};
  PolicyAssignment base = strip_fault_tolerance(
      inst.app, greedy_initial(inst.app, inst.arch, FaultModel{1},
                               PolicySpace::kReexecutionOnly, 4));
  EvalContext eval(inst.app, inst.arch, model);
  EXPECT_EQ(eval.rebase(base),
            list_schedule(inst.app, inst.arch, base).makespan);

  Rng rng(3);
  for (int move = 0; move < 40; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const Process& proc = inst.app.process(pid);
    std::vector<NodeId> allowed;
    for (NodeId n : inst.arch.node_ids()) {
      if (proc.can_run_on(n)) allowed.push_back(n);
    }
    ProcessPlan plan = base.plan(pid);
    plan.copies[0].node = allowed[rng.index(allowed.size())];

    PolicyAssignment candidate = base;
    candidate.plan(pid) = plan;
    EXPECT_EQ(eval.fault_free_makespan(pid, plan),
              list_schedule(inst.app, inst.arch, candidate).makespan);
  }
}

TEST(EvalContext, ConcurrentMoveEvaluationsMatchSerial) {
  const Instance inst = make_instance(20, 3, 55);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // One fixed move per process: flip copy 0's checkpoint count.
  std::vector<ProcessPlan> moves;
  for (int i = 0; i < inst.app.process_count(); ++i) {
    ProcessPlan plan = base.plan(ProcessId{i});
    plan.copies[0].checkpoints = plan.copies[0].checkpoints == 1 ? 3 : 1;
    moves.push_back(std::move(plan));
  }

  std::vector<Time> serial(moves.size(), 0);
  for (std::size_t i = 0; i < moves.size(); ++i) {
    serial[i] = eval.evaluate_move(ProcessId{static_cast<std::int32_t>(i)},
                                   moves[i])
                    .cost;
  }

  ThreadPool pool(3);  // real helpers even on single-core hosts
  std::vector<Time> parallel(moves.size(), 0);
  parallel_for(pool, moves.size(), 4, [&](std::size_t i) {
    parallel[i] = eval.evaluate_move(ProcessId{static_cast<std::int32_t>(i)},
                                     moves[i])
                      .cost;
  });
  EXPECT_EQ(serial, parallel);
}

// Regression guard for the accepted-move path: the search engine keeps the
// winner's evaluated objective and only rebases, which MUST rebuild the
// base schedule's checkpoint log -- otherwise the next round of
// list_schedule_resume would replay against a stale log and silently
// produce wrong schedules.  The test accepts the best of a sweep, then pins
// (a) that the new base's own outcome is the winner's, (b) that subsequent
// incremental evaluations against the new base are bit-identical to
// from-scratch evaluations and (c) that they actually resume from the
// fresh log.
TEST(EvalContext, AcceptedRebaseLeavesUsableCheckpointLog) {
  const Instance inst = make_instance(20, 3, 31);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // Candidate moves on one process: its copy 0's checkpoint count.
  const ProcessId pid = inst.app.topological_order().front();
  std::vector<ProcessPlan> moves;
  for (int count = 1; count <= 6; ++count) {
    ProcessPlan plan = base.plan(pid);
    plan.copies[0].checkpoints = count;
    if (plan == base.plan(pid)) continue;
    moves.push_back(std::move(plan));
  }
  ASSERT_GE(moves.size(), 2u);

  Time best_cost = kTimeInfinity;
  std::size_t best = 0;
  for (std::size_t i = 0; i < moves.size(); ++i) {
    const Time cost = eval.evaluate_move(pid, moves[i]).cost;
    if (cost < best_cost) {
      best_cost = cost;
      best = i;
    }
  }

  // Accept the winning move.
  const EvalStats before = eval.stats();
  base.plan(pid) = moves[best];
  eval.rebase(base);
  EXPECT_EQ(eval.evaluate_base().cost, best_cost);

  // Next round: moves against the new base must resume from the fresh log
  // and match from-scratch evaluations exactly.
  Rng rng(77);
  for (int round = 0; round < 25; ++round) {
    const ProcessId mover{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, mover, model, rng);
    PolicyAssignment candidate = base;
    candidate.plan(mover) = plan;
    const EvalContext::Outcome incremental = eval.evaluate_move(mover, plan);
    EXPECT_EQ(incremental.makespan,
              evaluate_wcsl(inst.app, inst.arch, candidate, model).makespan)
        << "round " << round;
  }
  const EvalStats next_round = eval.stats().since(before);
  EXPECT_GT(next_round.ls_events_resumed, 0)
      << "post-rebase evaluations must be served by the rebuilt log";
}

// Random accepted moves of all three families, each followed by a rebase:
// every new base's outcome, and a move evaluated against the new base's
// log, must stay exact under copy layout changes.
TEST(EvalContext, RandomAcceptChainIsExact) {
  const Instance inst = make_instance(18, 3, 404);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  Rng rng(1717);
  for (int accept = 0; accept < 12; ++accept) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    base.plan(pid) = random_move(inst, base, pid, model, rng);
    eval.rebase(base);
    const EvalContext::Outcome out = eval.evaluate_base();
    EXPECT_EQ(out.makespan,
              evaluate_wcsl(inst.app, inst.arch, base, model).makespan)
        << "accept " << accept;
    const ProcessId mover{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, mover, model, rng);
    PolicyAssignment candidate = base;
    candidate.plan(mover) = plan;
    EXPECT_EQ(eval.evaluate_move(mover, plan).makespan,
              evaluate_wcsl(inst.app, inst.arch, candidate, model).makespan)
        << "accept " << accept;
  }
}

// A chain on one node commits one copy per event, and the sink becomes
// ready only after its producer's commit, so a checkpoint move of the sink
// resumes at the very last event: every DP row but its own is the base's.
// Missed local deadlines on the source and the sink make the cost read
// the first event's base row and the moved copy's new row.
TEST(EvalContext, MoveResumedAtTheLastEventIsExact) {
  Instance inst{Application{}, Architecture::homogeneous(2, 5)};
  std::vector<ProcessId> chain;
  for (const char* name : {"A", "B", "C", "D"}) {
    chain.push_back(inst.app.add_process(
        name, {{NodeId{0}, 30}, {NodeId{1}, 30}}, 2, 2, 2));
    if (chain.size() > 1) {
      inst.app.connect(chain[chain.size() - 2], chain.back());
    }
  }
  inst.app.process(chain.front()).local_deadline = 1;
  inst.app.process(chain.back()).local_deadline = 1;
  inst.app.set_deadline(10000);
  const FaultModel model{2};
  PolicyAssignment base =
      uniform_assignment(inst.app, make_checkpointing_plan(model.k, 1));
  for (const ProcessId p : chain) base.plan(p).copies[0].node = NodeId{0};
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);
  for (int checkpoints = 2; checkpoints <= 4; ++checkpoints) {
    ProcessPlan plan = base.plan(chain.back());
    plan.copies[0].checkpoints = checkpoints;
    EXPECT_EQ(expect_exact_move(eval, inst, base, chain.back(), plan, model,
                                "sink X=" + std::to_string(checkpoints)),
              3);
  }
  EXPECT_EQ(eval.stats().dp_vertices_total, 3 * 4);
}

// The makespan can be attained before a move's resume point: H, long and
// alone on N1, commits at event 0; P commits at event 1 on N2; moving P's
// consumer M from N2 to N3 turns P -> M into a bus message, so the move
// resumes at P's event 1.  M finishes long before H, so only the base's
// prefix maximum (over event 0, just before the resume point) holds the
// makespan.  Missed local deadlines on H and M put both sides into the
// cost.
TEST(EvalContext, MakespanBeforeTheResumePointIsKept) {
  Instance inst{Application{}, Architecture::homogeneous(3, 5)};
  Application& app = inst.app;
  const std::vector<std::pair<NodeId, Time>> anywhere{
      {NodeId{0}, 10}, {NodeId{1}, 10}, {NodeId{2}, 10}};
  const ProcessId h = app.add_process("H", {{NodeId{0}, 1000}}, 2, 2, 2);
  const ProcessId p = app.add_process("P", anywhere, 2, 2, 2);
  const ProcessId m = app.add_process("M", anywhere, 2, 2, 2);
  app.connect(p, m);
  app.process(h).release = 1;
  app.process(p).release = 2;
  app.process(h).local_deadline = 1;
  app.process(m).local_deadline = 1;
  app.set_deadline(100000);
  const FaultModel model{2};
  PolicyAssignment base =
      uniform_assignment(app, make_checkpointing_plan(model.k, 1));
  base.plan(h).copies[0].node = NodeId{0};
  base.plan(p).copies[0].node = NodeId{1};
  base.plan(m).copies[0].node = NodeId{1};
  EvalContext eval(app, inst.arch, model);
  eval.rebase(base);
  ProcessPlan plan = base.plan(m);
  plan.copies[0].node = NodeId{2};
  EXPECT_EQ(expect_exact_move(eval, inst, base, m, plan, model, "M to N3"),
            1);
  PolicyAssignment candidate = base;
  candidate.plan(m) = plan;
  const WcslResult full =
      evaluate_wcsl(app, inst.arch, candidate, model);
  EXPECT_EQ(full.makespan, full.process_finish[static_cast<std::size_t>(
                               h.get())]);
  EXPECT_GT(full.makespan,
            full.process_finish[static_cast<std::size_t>(m.get())]);
}

// Moves that change a process's copy count -- re-execution to replication
// and to hybrid plans with 0 < cap < k, and back -- shift every later copy
// index, while the resumed prefix keeps its event ids.  Releases on every
// third process make the rows' release term matter.
TEST(EvalContext, CopyCountSwitchesWithHybridsAndReleasesAreExact) {
  Instance inst = make_instance(22, 3, 808);
  ftes::testing::release_every(inst.app, 3, 25);
  const FaultModel model{3};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  const PolicyAssignment replicated = [&] {
    PolicyAssignment pa = base;
    ftes::testing::replicate_every(inst.app, inst.arch, model, 2, pa);
    return pa;
  }();
  for (const PolicyAssignment* start : {&base, &replicated}) {
    EvalContext eval(inst.app, inst.arch, model);
    eval.rebase(*start);
    int resumed_switches = 0;
    for (int i = 0; i < inst.app.process_count(); ++i) {
      const ProcessId pid{i};
      const Process& proc = inst.app.process(pid);
      if (proc.fixed_policy || proc.fixed_mapping) continue;
      std::vector<NodeId> allowed;
      for (NodeId n : inst.arch.node_ids()) {
        if (proc.can_run_on(n)) allowed.push_back(n);
      }
      std::vector<ProcessPlan> plans{
          make_checkpointing_plan(model.k, 1 + i % 4),
          make_replication_plan(model.k),
          make_hybrid_plan(model.k, 1 + i % (model.k - 1), 1 + i % 3)};
      for (ProcessPlan& plan : plans) {
        if (plan.copy_count() == start->plan(pid).copy_count()) continue;
        for (std::size_t j = 0; j < plan.copies.size(); ++j) {
          plan.copies[j].node = allowed[(j + static_cast<std::size_t>(i)) %
                                        allowed.size()];
        }
        const std::string what = "process " + std::to_string(i) + " to " +
                                 std::to_string(plan.copy_count()) +
                                 " copies";
        if (expect_exact_move(eval, inst, *start, pid, plan, model, what) >
            0) {
          ++resumed_switches;
        }
      }
    }
    EXPECT_GT(resumed_switches, 0);
  }
}

// A warm workspace keeps its DAG and rows from the previous base's moves;
// after each rebase (which bumps the version, here also growing and then
// shrinking the event count) its moves must read only the new base's rows
// before their resume point.
TEST(EvalContext, WarmWorkspaceAfterVersionBumpIsExact) {
  const Instance inst = make_instance(20, 3, 606);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  Rng rng(31);
  for (int version = 0; version < 6; ++version) {
    eval.rebase(base);
    EXPECT_EQ(eval.evaluate_base().cost,
              assignment_cost(inst.app, inst.arch, base, model))
        << "version " << version;
    for (int move = 0; move < 12; ++move) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng.index(static_cast<std::size_t>(inst.app.process_count())))};
      (void)expect_exact_move(eval, inst, base, pid,
                              random_move(inst, base, pid, model, rng), model,
                              "version " + std::to_string(version) +
                                  " move " + std::to_string(move));
    }
    // Next base: even versions replicate a process (more events), odd
    // ones return it to re-execution (fewer).
    const ProcessId pid{static_cast<std::int32_t>(version * 3 %
                                                  inst.app.process_count())};
    ProcessPlan plan = version % 2 == 0
                           ? make_replication_plan(model.k)
                           : make_checkpointing_plan(model.k, 2);
    for (CopyPlan& cp : plan.copies) {
      cp.node = base.plan(pid).copies[0].node;
    }
    base.plan(pid) = plan;
  }
  EXPECT_GT(eval.stats().dp_vertices_reused, 0);
}

// A rebase that throws -- in the list schedule (an unmapped copy) or in the
// analysis after it (a zero WCET under a copy with recoveries) -- leaves
// the previous base, its outcome and its moves intact.
TEST(EvalContext, ThrowingRebaseLeavesThePreviousBaseUsable) {
  Instance inst = make_instance(16, 3, 909);
  const FaultModel model{2};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  // A process that may run on a node base does not map it to; a zero
  // WCET there passes the list schedule but not the recovery law.
  ProcessId zero_pid;
  NodeId zero_node;
  for (int i = 0; i < inst.app.process_count() && !zero_pid.valid(); ++i) {
    const Process& proc = inst.app.process(ProcessId{i});
    for (NodeId n : inst.arch.node_ids()) {
      if (proc.can_run_on(n) && !proc.fixed_mapping &&
          n != base.plan(ProcessId{i}).copies[0].node) {
        zero_pid = ProcessId{i};
        zero_node = n;
        break;
      }
    }
  }
  ASSERT_TRUE(zero_pid.valid());
  inst.app.process(zero_pid).wcet[zero_node] = 0;

  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);
  const EvalContext::Outcome before = eval.evaluate_base();
  ASSERT_EQ(before.cost, assignment_cost(inst.app, inst.arch, base, model));

  PolicyAssignment unmapped = base;
  unmapped.plan(ProcessId{1}).copies[0].node = NodeId{};
  PolicyAssignment zero_wcet = base;
  zero_wcet.plan(zero_pid).copies[0].node = zero_node;
  ASSERT_NO_THROW((void)list_schedule(inst.app, inst.arch, zero_wcet));
  Rng rng(5);
  for (const PolicyAssignment* bad : {&unmapped, &zero_wcet}) {
    EXPECT_THROW((void)eval.rebase(*bad), std::invalid_argument);
    EXPECT_EQ(eval.stats().rebases, 1);
    EXPECT_EQ(eval.base().summary(inst.app), base.summary(inst.app));
    EXPECT_EQ(eval.evaluate_base().makespan, before.makespan);
    EXPECT_EQ(eval.evaluate_base().cost, before.cost);
    for (int move = 0; move < 15; ++move) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng.index(static_cast<std::size_t>(inst.app.process_count())))};
      if (pid == zero_pid) continue;
      (void)expect_exact_move(eval, inst, base, pid,
                              random_move(inst, base, pid, model, rng), model,
                              "move " + std::to_string(move));
    }
  }
  EXPECT_GT(eval.stats().dp_vertices_reused, 0);
}

// Shadow verification recomputes every sampled move from scratch: on a
// correct evaluator it finds nothing and leaves every other counter as an
// unverified run leaves it.
TEST(EvalContext, ShadowVerificationFindsNoMismatchAndCountsNothingElse) {
  const Instance inst = make_instance(18, 3, 91);
  const FaultModel model{2};
  PolicyAssignment base =
      greedy_initial(inst.app, inst.arch, model, PolicySpace::kFull, 8);
  ftes::testing::replicate_every(inst.app, inst.arch, model, 4, base);
  EvalContext plain(inst.app, inst.arch, model);
  EvalContext verified(inst.app, inst.arch, model, 1);
  plain.rebase(base);
  verified.rebase(base);
  Rng rng(8);
  for (int move = 0; move < 60; ++move) {
    const ProcessId pid{static_cast<std::int32_t>(
        rng.index(static_cast<std::size_t>(inst.app.process_count())))};
    const ProcessPlan plan = random_move(inst, base, pid, model, rng);
    const EvalContext::Outcome a = plain.evaluate_move(pid, plan);
    const EvalContext::Outcome b = verified.evaluate_move(pid, plan);
    ASSERT_EQ(a.makespan, b.makespan) << "move " << move;
    ASSERT_EQ(a.cost, b.cost) << "move " << move;
  }
  const EvalStats p = plain.stats();
  const EvalStats v = verified.stats();
  EXPECT_EQ(v.verify_mismatches, 0);
  for (auto counter : kEvalCounters) EXPECT_EQ(p.*counter, v.*counter);
}

// A base whose application changed after its rebase (the context holds the
// application by reference) yields resumed evaluations that are no longer
// exact: their prefix is the stale base's.  With N = 2 every second move
// evaluation is checked; each checked one is caught, counted and, with
// assertions, thrown.
TEST(EvalContext, ShadowVerificationCatchesAStaleBase) {
  Instance inst = make_instance(16, 2, 12);
  const FaultModel model{1};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 4);
  EvalContext eval(inst.app, inst.arch, model, 2);
  eval.rebase(base);
  for (int i = 0; i < inst.app.process_count(); i += 3) {
    for (auto& [node, wcet] : inst.app.process(ProcessId{i}).wcet) wcet *= 5;
  }
  // The last process in topological order: its moves resume past event 0,
  // so their prefix comes from the stale base.
  const ProcessId pid = inst.app.topological_order().back();
  ProcessPlan plan = base.plan(pid);
  plan.copies[0].checkpoints = plan.copies[0].checkpoints == 1 ? 2 : 1;
  int thrown = 0;
  for (int move = 0; move < 6; ++move) {
    try {
      (void)eval.evaluate_move(pid, plan);
    } catch (const std::logic_error&) {
      ++thrown;
    }
  }
  EXPECT_EQ(eval.stats().verify_mismatches, 3);
#ifdef NDEBUG
  EXPECT_EQ(thrown, 0);
#else
  EXPECT_EQ(thrown, 3);
#endif
  EXPECT_GT(eval.stats().ls_events_resumed, 0);
}

TEST(EvalContext, EvaluateMoveWithoutRebaseThrows) {
  const Instance inst = make_instance(6, 2, 1);
  const FaultModel model{1};
  EvalContext eval(inst.app, inst.arch, model);
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kReexecutionOnly, 4);
  EXPECT_THROW((void)eval.evaluate_move(ProcessId{0}, base.plan(ProcessId{0})),
               std::logic_error);
}

TEST(EvalContext, EvaluateBaseWithoutRebaseThrows) {
  const Instance inst = make_instance(6, 2, 1);
  const FaultModel model{1};
  EvalContext eval(inst.app, inst.arch, model);
  EXPECT_THROW((void)eval.evaluate_base(), std::logic_error);
}

}  // namespace
}  // namespace ftes

#ifndef FTES_SANITIZER_RUNTIME
// Counting replacements of the global allocation functions (see
// g_allocations): every variant that allocates goes through malloc and
// every variant that frees through free.  GCC, inlining a sized delete
// into a caller that used new, would flag the free below as a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  ftes::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ftes::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#endif  // FTES_SANITIZER_RUNTIME
