// Tests of the incremental evaluation context (opt/eval_context.h): move
// evaluation over resumed schedules must be bit-identical to a
// from-scratch evaluation for every move family, cost included, and
// thread-safe under the parallel neighborhood evaluation.
#include "opt/eval_context.h"

#include <gtest/gtest.h>

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

/// A randomly mutated plan for `pid`: checkpoint-count change, remap of a
/// copy, or a policy-kind switch (the tabu search's three move families).
ProcessPlan random_move(const Instance& inst, const PolicyAssignment& base,
                        ProcessId pid, const FaultModel& model, Rng& rng) {
  ProcessPlan plan = base.plan(pid);
  const Process& proc = inst.app.process(pid);
  std::vector<NodeId> allowed;
  for (NodeId n : inst.arch.node_ids()) {
    if (proc.can_run_on(n)) allowed.push_back(n);
  }
  switch (rng.index(3)) {
    case 0: {  // checkpoint count
      CopyPlan& cp = plan.copies[rng.index(plan.copies.size())];
      if (cp.checkpoints >= 1) {
        cp.checkpoints = 1 + static_cast<int>(rng.uniform_int(0, 7));
        break;
      }
      [[fallthrough]];
    }
    case 1: {  // remap one copy
      CopyPlan& cp = plan.copies[rng.index(plan.copies.size())];
      cp.node = allowed[rng.index(allowed.size())];
      break;
    }
    default: {  // policy switch (changes the copy structure)
      if (rng.chance(0.5)) {
        plan = make_replication_plan(model.k);
        for (CopyPlan& cp : plan.copies) {
          cp.node = allowed[rng.index(allowed.size())];
        }
      } else {
        plan = make_checkpointing_plan(model.k,
                                       1 + static_cast<int>(rng.uniform_int(0, 5)));
        plan.copies[0].node = allowed[rng.index(allowed.size())];
      }
      break;
    }
  }
  return plan;
}

// Every third process gets a local deadline at ~60% of its base worst-case
// finish, so most candidates miss some and pay the soft penalty: costs
// from evaluate_move and rebase must equal assignment_cost's.
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
  ASSERT_EQ(eval.rebase(base).cost,
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
      ASSERT_EQ(eval.rebase(base).cost, full_cost) << "move " << move;
    }
  }
  EXPECT_GT(penalized, 0) << "no move paid a local-deadline penalty";
}

/// Random moves of `base` through evaluate_move, each checked against the
/// historical Digraph-based analysis (bench/reference_wcsl.h) of the
/// candidate's from-scratch schedule; every seventh move is accepted.
void expect_moves_match_reference(const Instance& inst,
                                  PolicyAssignment base,
                                  const FaultModel& model, int moves,
                                  std::uint64_t seed) {
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
      eval.rebase(base, pid);
    }
  }
}

// The move evaluator against the Digraph reference: random instances with
// replicas, a 500-process scale instance, and a co-located
// producer/consumer pair whose edge appears twice in the consumer's
// predecessor multiset.
TEST(EvalContext, IncrementalMatchesDigraphReference) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Instance inst = make_instance(10 + 4 * static_cast<int>(seed),
                                        2 + static_cast<int>(seed % 3), seed);
    const FaultModel model{1 + static_cast<int>(seed % 3)};
    PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                           PolicySpace::kFull, 8);
    ftes::testing::replicate_every(inst.app, inst.arch, model, 3, base);
    expect_moves_match_reference(inst, std::move(base), model, 60, seed);
  }
  {
    Rng rng(2008);
    const TaskGenParams params = scale_families().front().params;
    const Instance inst{generate_application(params, rng),
                        generate_architecture(params)};
    const FaultModel model{1};
    PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                           PolicySpace::kFull, 8);
    ftes::testing::replicate_every(inst.app, inst.arch, model, 3, base);
    expect_moves_match_reference(inst, std::move(base), model, 15, 500);
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
    const WcslGraph::Range preds = dag.g.predecessors(b.get());
    ASSERT_EQ(std::vector<int>(preds.begin(), preds.end()),
              (std::vector<int>{a.get(), a.get()}));
    expect_moves_match_reference(inst, std::move(base), model, 40, 99);
  }
}

TEST(EvalContext, RebaseOutcomeMatchesFullEvaluation) {
  const Instance inst = make_instance(14, 2, 5);
  const FaultModel model{3};
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  const EvalContext::Outcome out = eval.rebase(base);
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
  eval.rebase_fault_free(base);

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

// Regression guard for the accepted-move path: a rebase served by the
// winning-move cache skips the DP rebuild but MUST still rebuild the base
// schedule's checkpoint log -- otherwise the next round of
// list_schedule_resume would replay against a stale log and silently
// produce wrong schedules.  The test forces a cache-hit rebase, then pins
// (a) that subsequent incremental evaluations against the new base are
// bit-identical to from-scratch evaluations and (b) that they actually
// resume from the fresh log.
TEST(EvalContext, CacheHitRebaseLeavesUsableCheckpointLog) {
  const Instance inst = make_instance(20, 3, 31);
  const FaultModel model{2};
  PolicyAssignment base = greedy_initial(inst.app, inst.arch, model,
                                         PolicySpace::kCheckpointingOnly, 8);
  EvalContext eval(inst.app, inst.arch, model);
  eval.rebase(base);

  // Candidate moves on one process, generated in increasing move-key
  // order (checkpoint count ascending): picking the first strict minimum
  // below then matches the winning-move cache's deterministic tie-break.
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

  // Accept the winning move: this rebase must be served by the cache.
  const EvalStats before = eval.stats();
  base.plan(pid) = moves[best];
  const EvalContext::Outcome accepted = eval.rebase(base);
  const EvalStats after_rebase = eval.stats().since(before);
  ASSERT_EQ(after_rebase.rebase_cache_hits, 1)
      << "the accepted move must hit the winning-move cache";
  EXPECT_EQ(accepted.cost, best_cost);

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

// Random accepted moves of all three families, each rebased with the
// accepted-process hint: every rebase outcome, and a move evaluated against
// the new base's log, must stay exact under copy layout changes.
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
    const EvalContext::Outcome out = eval.rebase(base, pid);
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

TEST(EvalContext, EvaluateMoveWithoutRebaseThrows) {
  const Instance inst = make_instance(6, 2, 1);
  const FaultModel model{1};
  EvalContext eval(inst.app, inst.arch, model);
  const PolicyAssignment base = greedy_initial(
      inst.app, inst.arch, model, PolicySpace::kReexecutionOnly, 4);
  EXPECT_THROW((void)eval.evaluate_move(ProcessId{0}, base.plan(ProcessId{0})),
               std::logic_error);
}

}  // namespace
}  // namespace ftes
