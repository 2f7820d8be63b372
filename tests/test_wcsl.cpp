// Tests of the worst-case schedule length analysis (fault-budget DP), of
// its flat, event-indexed DAG against the historical Digraph-based
// analysis (bench/reference_wcsl.h), of the rows the list scheduler
// computes at commit against the DP over that DAG, and of the DAG
// builder's schedule validation.
#include "sched/wcsl.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fault/recovery.h"
#include "fixtures.h"
#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "reference_wcsl.h"
#include "sched/cond_scheduler.h"
#include "sched/list_scheduler.h"
#include "util/random.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;
using ::ftes::testing::two_node_arch;

PolicyAssignment single(const Application& app, NodeId node, int k, int n) {
  PolicyAssignment pa = uniform_assignment(app, make_checkpointing_plan(k, n));
  for (int i = 0; i < app.process_count(); ++i) {
    pa.plan(ProcessId{i}).copies[0].node = node;
  }
  return pa;
}

TEST(Wcsl, SingleProcessMatchesRecoveryAlgebra) {
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 60}}, 10, 10, 5);
  app.set_deadline(1000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  for (int k : {0, 1, 2, 3}) {
    const PolicyAssignment pa = single(app, NodeId{0}, k, 2);
    const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{k});
    EXPECT_EQ(r.makespan,
              checkpointed_exec_time(RecoveryParams{60, 10, 10, 5}, 2, k));
  }
}

TEST(Wcsl, AdversaryConcentratesFaultsOnWorstProcess) {
  // Two independent processes on one node: all k faults go to the process
  // with the larger per-fault recovery cost.
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 100}}, 5, 5, 5);  // rec = 110
  (void)app.add_process("B", {{NodeId{0}, 20}}, 5, 5, 5);   // rec = 30
  app.set_deadline(10000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const int k = 3;
  const PolicyAssignment pa = single(app, NodeId{0}, k, 1);
  const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{k});
  const Time fault_free = (100 + 5) + (20 + 5);  // chi = 5 each, n = 1
  EXPECT_EQ(r.makespan, fault_free + k * (100 + 5 + 5));
}

TEST(Wcsl, BudgetSplitsAcrossSerialChainOptimally) {
  // A -> B on one node with different recovery costs; the DP must consider
  // mixed splits, not only all-on-one.
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 50}}, 1, 1, 1);
  const ProcessId b = app.add_process("B", {{NodeId{0}, 48}}, 1, 1, 1);
  app.connect(a, b);
  app.set_deadline(10000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const int k = 2;
  const PolicyAssignment pa = single(app, NodeId{0}, k, 1);
  const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{k});
  // Best adversary: both faults on A (52 each) vs split; all-on-A wins.
  const Time fault_free = 51 + 49;
  EXPECT_EQ(r.makespan, fault_free + 2 * (50 + 1 + 1));
}

TEST(Wcsl, MoreCheckpointsReduceWorstCase) {
  Application app;
  (void)app.add_process("A", {{NodeId{0}, 100}}, 2, 2, 2);
  app.set_deadline(10000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const int k = 4;
  const Time with_one =
      evaluate_wcsl(app, arch, single(app, NodeId{0}, k, 1), FaultModel{k})
          .makespan;
  const Time with_five =
      evaluate_wcsl(app, arch, single(app, NodeId{0}, k, 5), FaultModel{k})
          .makespan;
  EXPECT_LT(with_five, with_one);
}

TEST(Wcsl, ReplicationAvoidsTimeRedundancy) {
  // One heavy process: replication's worst case is the slowest replica,
  // re-execution's is k recoveries in sequence.
  Application app;
  const ProcessId a =
      app.add_process("A", {{NodeId{0}, 100}, {NodeId{1}, 100}}, 5, 5, 5);
  app.set_deadline(10000);
  const Architecture arch = two_node_arch();
  const int k = 1;

  PolicyAssignment repl(app.process_count());
  ProcessPlan plan = make_replication_plan(k);
  plan.copies[0].node = NodeId{0};
  plan.copies[1].node = NodeId{1};
  repl.plan(a) = plan;
  const Time t_repl =
      evaluate_wcsl(app, arch, repl, FaultModel{k}).makespan;
  EXPECT_EQ(t_repl, 100);  // replicas in parallel, faults kill not delay

  const Time t_reexec =
      evaluate_wcsl(app, arch, single(app, NodeId{0}, k, 1), FaultModel{k})
          .makespan;
  EXPECT_EQ(t_reexec, 105 + (100 + 5 + 5));
  EXPECT_LT(t_repl, t_reexec);
}

TEST(Wcsl, MonotoneInFaultCount) {
  auto f = fig5_app();
  Time prev = 0;
  for (int k = 0; k <= 4; ++k) {
    PolicyAssignment pa(f.app.process_count());
    for (int i = 0; i < f.app.process_count(); ++i) {
      ProcessPlan plan = make_checkpointing_plan(k, 1);
      plan.copies[0].node = f.assignment.plan(ProcessId{i}).copies[0].node;
      pa.plan(ProcessId{i}) = plan;
    }
    const Time m = evaluate_wcsl(f.app, f.arch, pa, FaultModel{k}).makespan;
    EXPECT_GE(m, prev) << "k=" << k;
    prev = m;
  }
}

TEST(Wcsl, UpperBoundsScenarioExactWcsl) {
  // The DP is conservative: it must dominate the scenario-exact worst case
  // computed by the conditional scheduler (transparency ignored).
  auto f = fig5_app();
  CondScheduleOptions opts;
  opts.respect_transparency = false;
  // The DP models data traffic but not condition-broadcast contention
  // (Section 6's estimators do the same), so compare against the
  // broadcast-free exact schedule.
  opts.schedule_condition_broadcasts = false;
  const CondScheduleResult exact =
      conditional_schedule(f.app, f.arch, f.assignment, f.model, opts);
  const WcslResult dp = evaluate_wcsl(f.app, f.arch, f.assignment, f.model);
  EXPECT_GE(dp.makespan, exact.wcsl);
}

TEST(Wcsl, ProcessFinishFeedsLocalDeadlines) {
  Application app;
  const ProcessId a = app.add_process("A", {{NodeId{0}, 30}}, 5, 5, 5);
  app.process(a).local_deadline = 40;
  app.set_deadline(1000);
  const Architecture arch = Architecture::homogeneous(1, 5);
  const PolicyAssignment pa = single(app, NodeId{0}, 1, 1);
  const WcslResult r = evaluate_wcsl(app, arch, pa, FaultModel{1});
  // Worst case 35 + 40 = 75 > 40: local deadline violated.
  EXPECT_FALSE(r.meets_deadlines(app));
  app.process(a).local_deadline = 100;
  EXPECT_TRUE(evaluate_wcsl(app, arch, pa, FaultModel{1}).meets_deadlines(app));
}

TEST(Wcsl, DeadlineCheckUsesGlobalDeadline) {
  auto f = fig5_app();
  const WcslResult r = evaluate_wcsl(f.app, f.arch, f.assignment, f.model);
  f.app.set_deadline(r.makespan);
  EXPECT_TRUE(
      evaluate_wcsl(f.app, f.arch, f.assignment, f.model).meets_deadlines(f.app));
  f.app.set_deadline(r.makespan - 1);
  EXPECT_FALSE(
      evaluate_wcsl(f.app, f.arch, f.assignment, f.model).meets_deadlines(f.app));
}

// --- flat DAG vs the Digraph reference ---------------------------------------

void expect_same_result(const WcslResult& a, const WcslResult& b,
                        const std::string& what) {
  EXPECT_EQ(a.makespan, b.makespan) << what;
  EXPECT_EQ(a.process_finish, b.process_finish) << what;
  EXPECT_EQ(a.copy_worst_start, b.copy_worst_start) << what;
  EXPECT_EQ(a.copy_worst_finish, b.copy_worst_finish) << what;
  EXPECT_EQ(a.msg_worst_ready, b.msg_worst_ready) << what;
}

/// The reference's vertex ids are copies, then transmissions -- the
/// encoding of WcslDag::item -- so DAG vertex e is reference vertex
/// dag.item[e].  Checks that the event map is the schedule's commit
/// indices, that the topological order is 0..V-1 with every predecessor an
/// earlier event, and, per vertex through the map, the same predecessor
/// multiset, weights w(f) for f = 0..k and release.
void expect_same_dag(const WcslDag& dag,
                     const ftes::testing::ReferenceWcslDag& ref,
                     const ListSchedule& sched, int k,
                     const std::string& what) {
  ASSERT_EQ(dag.copy_count, ref.copy_count) << what;
  ASSERT_EQ(dag.msg_count, ref.msg_count) << what;
  ASSERT_EQ(dag.g.vertex_count(), ref.g.vertex_count()) << what;
  const std::size_t total = static_cast<std::size_t>(dag.g.vertex_count());
  std::vector<int> identity(total);
  std::iota(identity.begin(), identity.end(), 0);
  EXPECT_EQ(dag.g.topological_order(), identity) << what;
  ASSERT_EQ(dag.item.size(), total) << what;
  for (std::size_t e = 0; e < total; ++e) {
    const int r = dag.item[e];
    ASSERT_TRUE(r >= 0 && r < ref.g.vertex_count()) << what << " event " << e;
    const int committed =
        r < dag.copy_count
            ? sched.copies[static_cast<std::size_t>(r)].event
            : sched.messages[static_cast<std::size_t>(r - dag.copy_count)]
                  .event;
    ASSERT_EQ(committed, static_cast<int>(e)) << what << " vertex " << r;
  }
  for (int e = 0; e < dag.g.vertex_count(); ++e) {
    const int r = dag.item[static_cast<std::size_t>(e)];
    std::vector<int> expected = ref.g.predecessors(r);
    std::sort(expected.begin(), expected.end());
    std::vector<int> actual;
    for (int p : dag.g.predecessors(e)) {
      EXPECT_LT(p, e) << what << " edge " << p << " -> " << e;
      actual.push_back(dag.item[static_cast<std::size_t>(p)]);
    }
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << what << " vertex " << r;
    std::vector<Time> weights;
    for (int f = 0; f <= k; ++f) weights.push_back(dag.weight_at(e, f));
    EXPECT_EQ(weights, ref.weight[static_cast<std::size_t>(r)])
        << what << " vertex " << r;
    EXPECT_EQ(dag.release[static_cast<std::size_t>(e)],
              ref.release[static_cast<std::size_t>(r)])
        << what << " vertex " << r;
  }
}

/// The DAG and both analyses of one assignment against the reference.
void expect_matches_reference(const Application& app, const Architecture& arch,
                              const PolicyAssignment& pa,
                              const FaultModel& model,
                              const std::string& what) {
  const ListSchedule sched = list_schedule(app, arch, pa);
  expect_same_dag(
      build_wcsl_dag(app, arch, pa, model.k, sched),
      ftes::testing::reference_build_wcsl_dag(app, arch, pa, model.k, sched),
      sched, model.k, what);
  expect_same_result(
      worst_case_schedule_length(app, arch, pa, model, sched),
      ftes::testing::reference_worst_case_schedule_length(app, arch, pa, model,
                                                           sched),
      what + " budgeted");
  expect_same_result(
      worst_case_transparent(app, arch, pa, model, sched),
      ftes::testing::reference_worst_case_transparent(app, arch, pa, model,
                                                      sched),
      what + " transparent");
}

/// Gives every `stride`-th process, from the first, a hybrid plan
/// (1..k-1 extra replicas, recoveries capped below k) spread over the
/// nodes it can run on.  Needs k >= 2.
void hybridize_every(const Application& app, const Architecture& arch,
                     const FaultModel& model, int stride,
                     PolicyAssignment& assignment) {
  for (int i = 1; i < app.process_count(); i += stride) {
    const Process& proc = app.process(ProcessId{i});
    if (proc.fixed_policy || proc.fixed_mapping) continue;
    std::vector<NodeId> allowed;
    for (NodeId n : arch.node_ids()) {
      if (proc.can_run_on(n)) allowed.push_back(n);
    }
    ProcessPlan plan =
        make_hybrid_plan(model.k, 1 + i % (model.k - 1), 1 + i % 3);
    for (std::size_t j = 0; j < plan.copies.size(); ++j) {
      plan.copies[j].node = allowed[j % allowed.size()];
    }
    assignment.plan(ProcessId{i}) = plan;
  }
}

TEST(WcslReference, FlatDagMatchesDigraphOnRandomInstances) {
  // k spans 1..7 (the paper's range is 3-7), and the plans give every row
  // form of wcsl_dp_row: constant weights (replicas, transmissions),
  // linear up to k (checkpointing) and, for k >= 2, linear with a cap
  // below k (hybrid copies).
  for (std::uint64_t seed = 1; seed <= 14; ++seed) {
    TaskGenParams params;
    params.process_count = 12 + 4 * static_cast<int>(seed);
    params.node_count = 2 + static_cast<int>(seed % 3);
    Rng rng(seed);
    const Application app = generate_application(params, rng);
    const Architecture arch = generate_architecture(params);
    const FaultModel model{1 + static_cast<int>(seed % 7)};
    PolicyAssignment pa =
        greedy_initial(app, arch, model, PolicySpace::kFull, 8);
    // Varied checkpoint counts (so weights differ per f), then replicas
    // and hybrids.
    for (int i = 0; i < app.process_count(); ++i) {
      CopyPlan& copy = pa.plan(ProcessId{i}).copies[0];
      if (copy.checkpoints >= 1) copy.checkpoints = 1 + i % 4;
    }
    ftes::testing::replicate_every(app, arch, model,
                                   2 + static_cast<int>(seed % 2), pa);
    if (model.k >= 2) hybridize_every(app, arch, model, 4, pa);
    const std::string what =
        "seed " + std::to_string(seed) + " k " + std::to_string(model.k);

    const WcslDag dag =
        build_wcsl_dag(app, arch, pa, model.k, list_schedule(app, arch, pa));
    int constant = 0;
    int capped = 0;
    int full = 0;
    for (const WcslWeight& w : dag.weight) {
      if (w.step == 0 || w.cap <= 0) {
        ++constant;
      } else {
        ++(w.cap < model.k ? capped : full);
      }
    }
    EXPECT_GT(constant, 0) << what;
    EXPECT_GT(full, 0) << what;
    if (model.k >= 2) {
      EXPECT_GT(capped, 0) << what;
    }
    expect_matches_reference(app, arch, pa, model, what);
  }
}

TEST(WcslReference, FlatDagMatchesDigraphAtScale) {
  const ScaleFamily family = scale_families().front();  // 500 processes
  Rng rng(2008);
  const Application app = generate_application(family.params, rng);
  const Architecture arch = generate_architecture(family.params);
  const FaultModel model{2};
  PolicyAssignment pa = greedy_initial(app, arch, model, PolicySpace::kFull, 8);
  ftes::testing::replicate_every(app, arch, model, 3, pa);
  expect_matches_reference(app, arch, pa, model, family.name);
}

TEST(WcslReference, CoLocatedPairKeepsEveryEdge) {
  // S -> A -> B on one node, back to back: B's data edge and its
  // node-order edge both come from A, and the predecessor multiset keeps
  // both; a second message A -> B adds a third copy of the edge.
  for (int messages = 1; messages <= 2; ++messages) {
    Application app;
    const ProcessId s = app.add_process("S", {{NodeId{0}, 10}}, 2, 2, 2);
    const ProcessId a = app.add_process("A", {{NodeId{0}, 40}}, 2, 2, 2);
    const ProcessId b = app.add_process("B", {{NodeId{0}, 30}}, 2, 2, 2);
    app.connect(s, a);
    for (int m = 0; m < messages; ++m) app.connect(a, b);
    app.set_deadline(10000);
    const Architecture arch = Architecture::homogeneous(1, 5);
    const FaultModel model{2};
    const PolicyAssignment pa = single(app, NodeId{0}, model.k, 2);
    const ListSchedule sched = list_schedule(app, arch, pa);
    const WcslDag dag = build_wcsl_dag(app, arch, pa, model.k, sched);
    const int event_a = sched.copies[static_cast<std::size_t>(a.get())].event;
    const WcslGraph::Range preds = dag.g.predecessors(
        sched.copies[static_cast<std::size_t>(b.get())].event);
    EXPECT_EQ(std::vector<int>(preds.begin(), preds.end()),
              std::vector<int>(static_cast<std::size_t>(messages) + 1,
                               event_a));
    expect_matches_reference(app, arch, pa, model,
                             std::to_string(messages) + " message(s)");
  }
}

// --- rows at commit ----------------------------------------------------------

/// Every DP row of `dag`, in event order.
std::vector<std::vector<Time>> dp_rows(const WcslDag& dag, int k) {
  std::vector<std::vector<Time>> rows(
      static_cast<std::size_t>(dag.g.vertex_count()));
  for (int e = 0; e < dag.g.vertex_count(); ++e) {
    (void)wcsl_dp_row(dag, e, rows, k, rows[static_cast<std::size_t>(e)]);
  }
  return rows;
}

/// Row e of a ListScheduler::Rows layout: from `base` before `limit`, from
/// `rows` from there on.
std::vector<Time> row_at(const std::vector<Time>& base,
                         const std::vector<Time>& rows, std::size_t limit,
                         int k, std::size_t e) {
  const std::size_t width = static_cast<std::size_t>(k) + 1;
  const std::vector<Time>& from = e < limit ? base : rows;
  return std::vector<Time>(
      from.begin() + static_cast<std::ptrdiff_t>(e * width),
      from.begin() + static_cast<std::ptrdiff_t>((e + 1) * width));
}

// The invariant the move evaluator (opt/eval_context.h) rests on: the rows
// the list scheduler computes as it commits events are the DP's over
// build_wcsl_dag of the same schedule, event by event -- for a logged full
// build, and for a move's schedule resumed from it at event `limit`, whose
// rows before `limit` are read from the build's (so they are the
// candidate's own too).  One scheduler runs everything, warm.
TEST(WcslRowsAtCommit, EqualTheDpOverTheDagEventByEvent) {
  int partial = 0;  // moves resumed strictly inside the schedule
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskGenParams params;
    params.process_count = 12 + 6 * static_cast<int>(seed);
    params.node_count = 2 + static_cast<int>(seed % 3);
    Rng rng(seed);
    Application app = generate_application(params, rng);
    ftes::testing::release_every(app, 4, 15);
    const Architecture arch = generate_architecture(params);
    // k = 1..4, and k = 9 past the compile-time k of with_fixed_k.
    const FaultModel model{seed == 8 ? 9 : 1 + static_cast<int>(seed % 4)};
    const std::size_t k = static_cast<std::size_t>(model.k);
    PolicyAssignment base =
        greedy_initial(app, arch, model, PolicySpace::kFull, 8);
    ftes::testing::replicate_every(app, arch, model, 3, base);
    if (model.k >= 2) hybridize_every(app, arch, model, 4, base);
    ListScheduler scheduler(app, arch);
    ScheduleCheckpointLog log;
    std::vector<Time> base_rows;
    const ListSchedule& base_sched =
        scheduler.build(base, log, {model.k, &base_rows, nullptr});
    const std::vector<std::vector<Time>> base_dp =
        dp_rows(build_wcsl_dag(app, arch, base, model.k, base_sched), model.k);
    Time base_worst = 0;
    for (std::size_t e = 0; e < base_dp.size(); ++e) {
      EXPECT_EQ(row_at(base_rows, base_rows, 0, model.k, e), base_dp[e])
          << "seed " << seed << " base event " << e;
      base_worst = std::max(base_worst, base_dp[e][k]);
    }
    EXPECT_EQ(scheduler.worst_row(), base_worst) << "seed " << seed;

    std::vector<Time> rows;
    for (int move = 0; move < 30; ++move) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng.index(static_cast<std::size_t>(app.process_count())))};
      PolicyAssignment candidate = base;
      candidate.plan(pid) =
          ftes::testing::random_move(app, arch, base, pid, model, rng);
      const ListScheduler::Rows at{model.k, &rows, &base_rows};
      const ListScheduleResumeStats stats =
          scheduler.resume(base, log, candidate, pid, &at);
      const ListSchedule& sched = scheduler.schedule();
      ASSERT_EQ(sched.makespan, list_schedule(app, arch, candidate).makespan);
      const std::vector<std::vector<Time>> dp = dp_rows(
          build_wcsl_dag(app, arch, candidate, model.k, sched), model.k);
      const std::size_t limit = stats.events_resumed;
      ASSERT_EQ(dp.size(), stats.events_total);
      if (limit > 0 && limit < dp.size()) ++partial;
      Time worst = 0;
      for (std::size_t e = 0; e < dp.size(); ++e) {
        EXPECT_EQ(row_at(base_rows, rows, limit, model.k, e), dp[e])
            << "seed " << seed << " move " << move << " event " << e
            << " (resumed at " << limit << ")";
        if (e >= limit) worst = std::max(worst, dp[e][k]);
      }
      EXPECT_EQ(scheduler.worst_row(), worst)
          << "seed " << seed << " move " << move;
    }
  }
  EXPECT_GT(partial, 0);
}

// --- schedule validation -----------------------------------------------------

/// A process chain, its assignment and its list schedule.
struct Chain {
  Application app;
  Architecture arch = Architecture::homogeneous(3, 5);
  FaultModel model{2};
  PolicyAssignment pa;
  ListSchedule sched;
};

/// A -> B -> C, every process on node 0 of a 3-node architecture (A may
/// also run on nodes 1 and 2).
Chain chain_on_one_node() {
  Chain c;
  const ProcessId a = c.app.add_process(
      "A", {{NodeId{0}, 40}, {NodeId{1}, 40}, {NodeId{2}, 40}}, 2, 2, 2);
  const ProcessId b = c.app.add_process("B", {{NodeId{0}, 30}}, 2, 2, 2);
  const ProcessId d = c.app.add_process("C", {{NodeId{0}, 20}}, 2, 2, 2);
  c.app.connect(a, b);
  c.app.connect(b, d);
  c.app.set_deadline(10000);
  c.pa = single(c.app, NodeId{0}, c.model.k, 2);
  c.sched = list_schedule(c.app, c.arch, c.pa);
  return c;
}

/// Every analysis that builds the DAG rejects `sched` for `pa`.
void expect_rejected(const Chain& c, const PolicyAssignment& pa,
                     const ListSchedule& sched) {
  EXPECT_THROW((void)build_wcsl_dag(c.app, c.arch, pa, c.model.k, sched),
               std::invalid_argument);
  EXPECT_THROW(
      (void)worst_case_schedule_length(c.app, c.arch, pa, c.model, sched),
      std::invalid_argument);
  EXPECT_THROW((void)worst_case_transparent(c.app, c.arch, pa, c.model, sched),
               std::invalid_argument);
}

/// A -> B with A on node 0 and B on node 1 of a 2-node architecture: two
/// copies and one transmission.
Chain pair_across_the_bus() {
  Chain c;
  c.arch = Architecture::homogeneous(2, 5);
  const ProcessId a = c.app.add_process("A", {{NodeId{0}, 40}}, 2, 2, 2);
  const ProcessId b = c.app.add_process("B", {{NodeId{1}, 30}}, 2, 2, 2);
  c.app.connect(a, b);
  c.app.set_deadline(10000);
  c.pa = uniform_assignment(c.app, make_checkpointing_plan(c.model.k, 2));
  c.pa.plan(a).copies[0].node = NodeId{0};
  c.pa.plan(b).copies[0].node = NodeId{1};
  c.sched = list_schedule(c.app, c.arch, c.pa);
  return c;
}

TEST(WcslValidation, CommitIndicesOfAListScheduleAreItsEventOrder) {
  const Chain c = chain_on_one_node();
  // Single node: A, B, C placed in that order, no transmissions.
  ASSERT_EQ(c.sched.copies.size(), 3u);
  ASSERT_TRUE(c.sched.messages.empty());
  for (int v = 0; v < 3; ++v) {
    EXPECT_EQ(c.sched.copies[static_cast<std::size_t>(v)].event, v);
  }
  const WcslDag dag = build_wcsl_dag(c.app, c.arch, c.pa, c.model.k, c.sched);
  EXPECT_EQ(dag.g.topological_order(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(dag.item, (std::vector<int>{0, 1, 2}));
}

TEST(WcslValidation, ScheduleOfAnotherCopyLayoutIsRejected) {
  // The schedule of the one-copy chain analysed with A replicated to three
  // copies: without the layout check the builder reads past the
  // schedule's arrays.
  const Chain c = chain_on_one_node();
  PolicyAssignment replicated = c.pa;
  replicated.plan(ProcessId{0}) = make_replication_plan(c.model.k);
  for (int j = 0; j < 3; ++j) {
    replicated.plan(ProcessId{0}).copies[static_cast<std::size_t>(j)].node =
        NodeId{j};
  }
  expect_rejected(c, replicated, c.sched);
}

// A zero WCET is rejected only where the recovery law uses C: a
// checkpointed copy's E(n, 0) = n*chi never checks it, its per-fault step
// does (so the DAG build, which reads C back from the scheduled duration,
// throws once the copy has a recovery to use), and a replica's C is
// checked when the list schedule computes its duration.
TEST(WcslValidation, ZeroWcetIsRejectedWhereTheLawUsesIt) {
  Chain c = chain_on_one_node();
  c.app.process(ProcessId{1}).wcet[NodeId{0}] = 0;
  const ListSchedule sched = list_schedule(c.app, c.arch, c.pa);
  EXPECT_EQ(sched.copies[1].finish - sched.copies[1].start, 2 * 2);
  EXPECT_THROW((void)build_wcsl_dag(c.app, c.arch, c.pa, c.model.k, sched),
               std::invalid_argument);

  PolicyAssignment no_recovery = c.pa;
  no_recovery.plan(ProcessId{1}).copies[0].recoveries = 0;
  EXPECT_NO_THROW((void)build_wcsl_dag(
      c.app, c.arch, no_recovery, c.model.k,
      list_schedule(c.app, c.arch, no_recovery)));

  PolicyAssignment replica = c.pa;
  replica.plan(ProcessId{1}).copies[0] = CopyPlan{NodeId{0}, 0, 0};
  EXPECT_THROW((void)list_schedule(c.app, c.arch, replica),
               std::invalid_argument);
}

TEST(WcslValidation, DuplicatedCommitIndexIsRejected) {
  const Chain c = chain_on_one_node();
  ListSchedule sched = c.sched;
  sched.copies[2].event = sched.copies[1].event;
  expect_rejected(c, c.pa, sched);
}

TEST(WcslValidation, DefaultCommitIndexIsRejected) {
  const Chain c = chain_on_one_node();
  ListSchedule sched = c.sched;
  sched.copies[1].event = ScheduledCopy{}.event;
  ASSERT_EQ(sched.copies[1].event, -1);
  expect_rejected(c, c.pa, sched);
}

TEST(WcslValidation, TransmissionFromAMissingSourceCopyIsRejected) {
  const Chain c = pair_across_the_bus();
  ASSERT_EQ(c.sched.messages.size(), 1u);
  ListSchedule sched = c.sched;
  sched.messages[0].src_copy = 1;  // A has one copy
  expect_rejected(c, c.pa, sched);
}

TEST(WcslValidation, TransmissionOfAMissingMessageIsRejected) {
  const Chain c = pair_across_the_bus();
  ASSERT_EQ(c.sched.messages.size(), 1u);
  ListSchedule sched = c.sched;
  sched.messages[0].msg = MessageId{c.app.message_count()};
  expect_rejected(c, c.pa, sched);
}

TEST(WcslValidation, NodeOrderEntryThatIsNoCopyIsRejected) {
  // The first id past the copies is a transmission vertex; the first past
  // every vertex is out of all range.
  const Chain c = pair_across_the_bus();
  const int copies = static_cast<int>(c.sched.copies.size());
  for (int bad : {copies, copies + static_cast<int>(c.sched.messages.size())}) {
    ListSchedule sched = c.sched;
    sched.node_order[0].push_back(bad);
    expect_rejected(c, c.pa, sched);
  }
}

TEST(WcslValidation, BusOrderEntryThatIsNoTransmissionIsRejected) {
  const Chain c = pair_across_the_bus();
  ASSERT_EQ(c.sched.bus_order.size(), 1u);
  ListSchedule sched = c.sched;
  sched.bus_order.push_back(static_cast<int>(c.sched.messages.size()));
  expect_rejected(c, c.pa, sched);
}

TEST(WcslValidation, CopyRefOutsideTheLayoutIsRejected) {
  // The analyses index process_finish by the copy's ref.
  const Chain c = pair_across_the_bus();
  ListSchedule sched = c.sched;
  sched.copies[1].ref.process = ProcessId{5};
  expect_rejected(c, c.pa, sched);
}

TEST(WcslValidation, ConsumerCommittedBeforeItsProducerIsRejected) {
  // Still a permutation, but B now claims to have been committed before A.
  const Chain c = chain_on_one_node();
  ListSchedule sched = c.sched;
  std::swap(sched.copies[0].event, sched.copies[1].event);
  expect_rejected(c, c.pa, sched);
}

}  // namespace
}  // namespace ftes
