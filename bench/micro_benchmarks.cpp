// Microbenches for the library's hot paths: the WCSL DP (called tens of
// thousands of times by the optimizers), incremental vs. full per-move
// evaluation, the list scheduler, the FT-CPG construction, the conditional
// scheduler, the recovery algebra and the task-graph generator, on Google
// Benchmark (the target is skipped when the library is missing).
#include <benchmark/benchmark.h>

#include <cstring>

#include "bench_report.h"
#include "fault/recovery.h"
#include "ftcpg/builder.h"
#include "gen/taskgen.h"
#include "opt/eval_context.h"
#include "opt/policy_assignment.h"
#include "reference_list_schedule.h"
#include "sched/cond_scheduler.h"
#include "sched/wcsl.h"

namespace {

using namespace ftes;

struct Setup {
  Application app;
  Architecture arch;
  PolicyAssignment assignment;
  FaultModel model;
};

Setup make_setup(int processes, int nodes, int k) {
  TaskGenParams params;
  params.process_count = processes;
  params.node_count = nodes;
  Rng rng(1234);
  Setup s{generate_application(params, rng), generate_architecture(params),
          PolicyAssignment{}, FaultModel{k}};
  s.assignment = greedy_initial(s.app, s.arch, s.model,
                                PolicySpace::kCheckpointingOnly, 8);
  return s;
}

void BM_RecoveryAlgebra(benchmark::State& state) {
  const RecoveryParams p{60, 10, 10, 5};
  for (auto _ : state) {
    for (int n = 1; n <= 8; ++n) {
      benchmark::DoNotOptimize(checkpointed_exec_time(p, n, 3));
    }
  }
}
BENCHMARK(BM_RecoveryAlgebra);

void BM_LocalOptCheckpoints(benchmark::State& state) {
  const RecoveryParams p{60, 10, 10, 5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimal_checkpoints_local(p, 4, 64));
  }
}
BENCHMARK(BM_LocalOptCheckpoints);

void BM_ListSchedule(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(s.app, s.arch, s.assignment));
  }
}
BENCHMARK(BM_ListSchedule)->Arg(20)->Arg(50)->Arg(100);

void BM_WcslDp(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 5);
  const ListSchedule sched = list_schedule(s.app, s.arch, s.assignment);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        worst_case_schedule_length(s.app, s.arch, s.assignment, s.model, sched));
  }
}
BENCHMARK(BM_WcslDp)->Arg(20)->Arg(50)->Arg(100);

void BM_EvaluateWcsl(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_wcsl(s.app, s.arch, s.assignment, s.model));
  }
}
BENCHMARK(BM_EvaluateWcsl)->Arg(20)->Arg(50)->Arg(100);

// The move target: a DAG sink (arg1 == 1 or 2, the evaluator's favorable
// case -- a long resumable schedule prefix) or the first source (arg1 == 0,
// the unfavorable case).  The tabu mix samples in between.
ProcessId move_target(const Setup& s, bool sink) {
  const std::vector<ProcessId> order = s.app.topological_order();
  return sink ? order.back() : order.front();
}

// The moved plan of iteration `flip` (0 or 1) from the base plan `plan`:
// its first copy's checkpoint count changed, or -- with `copies` set (arg1
// == 2) -- two replicas, on the first copy's node and the next allowed one
// in swapped order between the two flips, so the copy count changes (the
// vertex layout shifts, and every consumer's dependency count with it).
ProcessPlan moved_plan(const Setup& s, ProcessId pid, ProcessPlan plan,
                       int flip, bool copies) {
  if (!copies) {
    CopyPlan& cp = plan.copies[0];
    cp.checkpoints = 1 + (cp.checkpoints + flip) % 8;
    return plan;
  }
  const int nodes = s.arch.node_count();
  const int first = plan.copies[0].node.get();
  NodeId other{(first + 1) % nodes};
  while (!s.app.process(pid).can_run_on(other)) {
    other = NodeId{(other.get() + 1) % nodes};
  }
  ProcessPlan replicas = make_replication_plan(1);
  replicas.copies[flip].node = plan.copies[0].node;
  replicas.copies[1 - flip].node = other;
  return replicas;
}

// A per-move evaluation the way the tabu search used to do it: copy the
// whole assignment, flip one checkpoint count, evaluate from scratch.
void BM_EvalMoveFullCopy(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 5);
  const ProcessId pid = move_target(s, state.range(1) != 0);
  int flip = 0;
  for (auto _ : state) {
    PolicyAssignment candidate = s.assignment;
    CopyPlan& cp = candidate.plan(pid).copies[0];
    cp.checkpoints = 1 + (cp.checkpoints + (flip ^= 1)) % 8;
    benchmark::DoNotOptimize(
        assignment_cost(s.app, s.arch, candidate, s.model));
  }
}
BENCHMARK(BM_EvalMoveFullCopy)->Args({50, 0})->Args({50, 1})->Args({100, 1});

// The same moves through the incremental EvalContext: one plan copied, the
// schedule resumed from the base's checkpoint log, then the WCSL pass from
// the resume point in the workspace's storage.  arg1 == 2 replaces the
// sink's checkpoint flip by a switch to two replicas (moved_plan).
void BM_EvalMoveIncremental(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 5);
  const ProcessId pid = move_target(s, state.range(1) != 0);
  EvalContext eval(s.app, s.arch, s.model);
  eval.rebase(s.assignment);
  const ProcessPlan plans[2] = {
      moved_plan(s, pid, s.assignment.plan(pid), 0, state.range(1) == 2),
      moved_plan(s, pid, s.assignment.plan(pid), 1, state.range(1) == 2)};
  int flip = 0;
  for (auto _ : state) {
    ProcessPlan plan = plans[flip ^= 1];  // a candidate's own plan copy
    benchmark::DoNotOptimize(eval.evaluate_move(pid, plan).cost);
  }
}
BENCHMARK(BM_EvalMoveIncremental)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({100, 1})
    ->Args({100, 2});

// ---------------------------------------------------------------------------
// Incremental list scheduling: a candidate move's schedule rebuilt from
// scratch vs resumed from the base's checkpoint log.  arg0 = processes,
// arg1 = 1 for a DAG-sink move (long resumable prefix), 0 for a source
// move (resume degenerates to a full rebuild -- the honest worst case), 2
// for a DAG-sink switch to two replicas instead of a checkpoint flip
// (moved_plan).
// ---------------------------------------------------------------------------

struct MoveSetup {
  Setup s;
  ScheduleCheckpointLog log;
  ProcessId pid;
  PolicyAssignment candidates[2];
};

MoveSetup make_move_setup(int processes, std::int64_t target) {
  MoveSetup ms{make_setup(processes, 4, 3), ScheduleCheckpointLog{},
               ProcessId{}, {}};
  (void)list_schedule(ms.s.app, ms.s.arch, ms.s.assignment, ms.log);
  ms.pid = move_target(ms.s, target != 0);
  for (int flip = 0; flip < 2; ++flip) {
    PolicyAssignment candidate = ms.s.assignment;
    candidate.plan(ms.pid) = moved_plan(
        ms.s, ms.pid, candidate.plan(ms.pid), flip, target == 2);
    ms.candidates[flip] = std::move(candidate);
  }
  return ms;
}

void BM_MoveScheduleFull(benchmark::State& state) {
  const MoveSetup ms =
      make_move_setup(static_cast<int>(state.range(0)), state.range(1));
  int flip = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list_schedule(ms.s.app, ms.s.arch, ms.candidates[flip ^= 1]));
  }
}
BENCHMARK(BM_MoveScheduleFull)->Args({50, 1})->Args({100, 1})->Args({100, 0});

void BM_MoveScheduleResume(benchmark::State& state) {
  const MoveSetup ms =
      make_move_setup(static_cast<int>(state.range(0)), state.range(1));
  int flip = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule_resume(ms.s.app, ms.s.arch,
                                                  ms.s.assignment, ms.log,
                                                  ms.candidates[flip ^= 1],
                                                  ms.pid));
  }
}
BENCHMARK(BM_MoveScheduleResume)
    ->Args({50, 1})
    ->Args({100, 1})
    ->Args({100, 0})
    ->Args({100, 2});

// ---------------------------------------------------------------------------
// Accepted-move rebases: the whole cost of a rebase's schedule -- one
// from-scratch build that records the new base's checkpoint log.  Same
// sink/source split as the move benches, for comparison with
// BM_MoveScheduleFull.
// ---------------------------------------------------------------------------

void BM_RebaseLogFullRebuild(benchmark::State& state) {
  const MoveSetup ms =
      make_move_setup(static_cast<int>(state.range(0)), state.range(1));
  ScheduleCheckpointLog fresh;
  int flip = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        list_schedule(ms.s.app, ms.s.arch, ms.candidates[flip ^= 1], fresh));
  }
}
BENCHMARK(BM_RebaseLogFullRebuild)
    ->Args({50, 1})
    ->Args({100, 1})
    ->Args({100, 0});

// ---------------------------------------------------------------------------
// Ready-set management: the production heap-based scheduler vs the
// historical O(V^2) linear ready-scan (kept here as a reference so the
// asymptotic win stays measurable).
// ---------------------------------------------------------------------------

void BM_ReadySetLinearScan(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ftes::testing::reference_list_schedule(s.app, s.arch, s.assignment));
  }
}
BENCHMARK(BM_ReadySetLinearScan)->Arg(50)->Arg(100);

void BM_ReadySetHeap(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 4, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(list_schedule(s.app, s.arch, s.assignment));
  }
}
BENCHMARK(BM_ReadySetHeap)->Arg(50)->Arg(100);

void BM_FtcpgBuild(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 2,
                             static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_ftcpg(s.app, s.assignment, s.model));
  }
}
BENCHMARK(BM_FtcpgBuild)->Args({6, 1})->Args({6, 2})->Args({10, 2});

void BM_ConditionalSchedule(benchmark::State& state) {
  const Setup s = make_setup(static_cast<int>(state.range(0)), 2, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conditional_schedule(s.app, s.arch, s.assignment, s.model));
  }
}
BENCHMARK(BM_ConditionalSchedule)->Arg(6)->Arg(8);

void BM_TaskGen(benchmark::State& state) {
  TaskGenParams params;
  params.process_count = static_cast<int>(state.range(0));
  params.node_count = 4;
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generate_application(params, rng));
  }
}
BENCHMARK(BM_TaskGen)->Arg(20)->Arg(100);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): it understands
// `--bench-json <file>` and writes a BenchReport (bench_report.h) with one
// entry per benchmark run (nanoseconds/op as the metric).
namespace {

/// Console output as usual, plus capture of every run into the report.
class JsonCapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCapturingReporter(ftes::bench::BenchReport* report)
      : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      ftes::bench::BenchReport::Entry& e = report_->add(run.benchmark_name());
      const double ns = run.GetAdjustedRealTime();
      // wall_seconds is the timed loop's elapsed time (docs/CLI.md);
      // per-op cost lives in the ns_per_op metric.
      e.wall_seconds = ns * static_cast<double>(run.iterations) * 1e-9;
      e.metric("ns_per_op", ns);
      e.metric("iterations", static_cast<double>(run.iterations));
      for (const auto& [counter_name, counter] : run.counters) {
        e.metric(counter_name, static_cast<double>(counter));
      }
    }
  }

 private:
  ftes::bench::BenchReport* report_;
};

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  ftes::bench::BenchReport report;
  report.bench = "micro_benchmarks";
  JsonCapturingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  if (json_path) report.write(json_path);
  return 0;
}
