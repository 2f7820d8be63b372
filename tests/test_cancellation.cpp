// Concurrency / cancellation stress suite for the synthesis pipeline
// (core/pipeline.h + util/cancellation.h), in the race-hunting spirit of
// NodeFz: fire the cancel token at randomized points -- from a watchdog
// thread, from progress callbacks, and via armed wall-clock budgets --
// across seeds and thread counts, and assert the invariants that must hold
// under EVERY interleaving:
//
//   * no deadlock, no crash (the test completing is the assertion),
//   * the partial result is well-formed (the assignment validates, the
//     metrics are structurally consistent),
//   * a 0ms budget cancels before the first stage does any search work,
//   * a timed-out batch task does not stop the sweep.
//
// CI runs this suite under ThreadSanitizer (see .github/workflows/ci.yml),
// which is where the randomized interleavings earn their keep.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/batch_runner.h"
#include "core/pipeline.h"
#include "core/synthesis.h"
#include "gen/taskgen.h"
#include "util/cancellation.h"
#include "util/random.h"
#include "util/stopwatch.h"
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

SynthesisOptions quick(int k, std::uint64_t seed) {
  SynthesisOptions opts;
  opts.fault_model.k = k;
  opts.optimize.iterations = 60;
  opts.optimize.neighborhood = 8;
  opts.optimize.seed = seed;
  return opts;
}

/// The invariants every cancelled (or completed) run must satisfy.
void expect_well_formed(const SynthesisResult& result,
                        const Pipeline& pipeline, const Application& app,
                        const FaultModel& model) {
  EXPECT_NO_THROW(result.assignment.validate(app, model));
  ASSERT_EQ(pipeline.metrics().size(), 3u);
  const std::vector<StageMetrics>& m = pipeline.metrics();
  EXPECT_EQ(m[0].stage, "policy_assignment");
  EXPECT_EQ(m[1].stage, "checkpoint_refine");
  EXPECT_EQ(m[2].stage, "schedule_tables");
  for (const StageMetrics& s : m) {
    EXPECT_GE(s.eval.evaluations, 0);
    EXPECT_GE(s.seconds, 0.0);
    EXPECT_GE(s.cancel_latency_seconds, 0.0);
    if (s.skipped) {
      EXPECT_EQ(s.eval.evaluations, 0) << s.stage;
    }
  }
  // Once a stage is skipped by a cancellation, everything after it is too.
  for (std::size_t i = 1; i < m.size(); ++i) {
    if (m[i - 1].skipped && result.cancelled) {
      EXPECT_TRUE(m[i].skipped) << "stage " << i << " ran after a skip";
    }
  }
}

/// A linear chain of `procs` heavy processes with a large k: every WCSL
/// evaluation walks a long DAG with many recovery slots, so an un-budgeted
/// tabu search over `iterations` would run for minutes -- the pathological
/// batch instance the deadline watchdog exists for.
std::string pathological_ftes(int procs, int k) {
  std::ostringstream o;
  o << "arch nodes=3 slot=4\nk " << k << "\ndeadline 1000000\n";
  for (int i = 1; i <= procs; ++i) {
    o << "process P" << i << " wcet N1=" << 40 + (i % 7) * 10
      << " N2=" << 50 + (i % 5) * 10 << " N3=" << 60 + (i % 3) * 10
      << " alpha=5 mu=5 chi=5\n";
  }
  for (int i = 1; i < procs; ++i) {
    o << "message m" << i << " P" << i << " P" << i + 1 << "\n";
  }
  return o.str();
}

// --- token semantics ---------------------------------------------------------

TEST(Cancellation, HugeBudgetSaturatesInsteadOfOverflowing) {
  CancellationToken token;
  // "Practically unlimited" values must not wrap negative and fire
  // instantly (now_ns + ms * 1e6 would overflow signed 64-bit).
  token.arm_total_budget_ms(10'000'000'000'000);  // ~317 years
  token.arm_stage_budget_ms(9'000'000'000'000'000);
  EXPECT_FALSE(token.poll());
  EXPECT_FALSE(token.cancelled());
}

TEST(Cancellation, ChildObservesParentFlagNotParentDeadlines) {
  CancellationToken parent;
  CancellationToken child(&parent);
  parent.arm_stage_budget_ms(0);
  // Deadlines are enforced only by the parent's own pollers: a child poll
  // must not flip an expired-but-unobserved stage budget (otherwise a
  // background task could time a stage out after it already completed
  // under budget).
  EXPECT_FALSE(child.poll());
  EXPECT_FALSE(parent.cancelled());
  EXPECT_TRUE(parent.poll());
  EXPECT_TRUE(child.poll());
  EXPECT_TRUE(child.cancelled());
  EXPECT_TRUE(parent.deadline_expired());
  EXPECT_FALSE(child.deadline_expired());  // the child itself had no budget
}

// --- watchdog thread at randomized points -----------------------------------

TEST(Cancellation, WatchdogThreadAtRandomizedPoints) {
  ThreadPool pool(3);  // real helpers even on single-core hosts
  Rng delays(20260730);
  for (std::uint64_t seed : {1ull, 7ull, 13ull}) {
    for (int threads : {1, 4}) {
      const Instance inst = make_instance(14, 3, seed);
      SynthesisOptions opts = quick(2, seed);
      opts.optimize.threads = threads;
      opts.optimize.pool = &pool;
      SynthesisContext ctx(inst.app, inst.arch, opts);

      // The watchdog thread: sleep a pseudo-random slice of the expected
      // run time, then flip the token from outside.
      const auto delay =
          std::chrono::microseconds(delays.uniform_int(0, 30000));
      std::thread watchdog([&ctx, delay] {
        std::this_thread::sleep_for(delay);
        ctx.request_cancel();
      });

      Pipeline pipeline = Pipeline::default_pipeline();
      const SynthesisResult result = pipeline.run(ctx);
      watchdog.join();

      expect_well_formed(result, pipeline, inst.app, opts.fault_model);
      // An external cancel is not a deadline expiry.
      EXPECT_FALSE(result.timed_out);
    }
  }
}

// --- cancellation from a progress callback at every stage boundary ----------

TEST(Cancellation, CancelAtEveryStageBoundary) {
  const Instance inst = make_instance(10, 2, 3);
  for (int cancel_at = 0; cancel_at < 6; ++cancel_at) {
    SynthesisOptions opts = quick(2, 3);
    SynthesisContext ctx(inst.app, inst.arch, opts);
    int event = 0;
    ctx.on_progress([&](const StageProgress&) {
      if (event++ == cancel_at) ctx.request_cancel();
    });
    Pipeline pipeline = Pipeline::default_pipeline();
    const SynthesisResult result = pipeline.run(ctx);
    expect_well_formed(result, pipeline, inst.app, opts.fault_model);
    EXPECT_TRUE(result.cancelled);
    // Cancelling at the start event of stage i skips every later stage.
    const int stage_of_event = cancel_at / 2;
    for (std::size_t i = static_cast<std::size_t>(stage_of_event) + 1;
         i < pipeline.metrics().size(); ++i) {
      EXPECT_TRUE(pipeline.metrics()[i].skipped)
          << "cancel at event " << cancel_at << ", stage " << i;
    }
  }
}

// --- deadline watchdog -------------------------------------------------------

TEST(Cancellation, ZeroStageBudgetCancelsBeforeFirstStageCompletes) {
  const Instance inst = make_instance(16, 3, 11);
  SynthesisOptions opts = quick(3, 11);
  opts.optimize.iterations = 100000;  // would run for a long time
  opts.stage_budget_ms = 0;
  SynthesisContext ctx(inst.app, inst.arch, opts);
  Pipeline pipeline = Pipeline::default_pipeline();
  const SynthesisResult result = pipeline.run(ctx);

  expect_well_formed(result, pipeline, inst.app, opts.fault_model);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.timed_out);
  // The tabu search is cut at its first cancellation point: only the
  // initial rebase evaluation happened, no search iteration completed.
  EXPECT_EQ(result.evaluations, 1);
  EXPECT_TRUE(pipeline.metrics()[0].timed_out);
  EXPECT_TRUE(pipeline.metrics()[1].skipped);
  EXPECT_TRUE(pipeline.metrics()[2].skipped);
  // The partial state still reports the initial assignment's bound.
  EXPECT_GT(result.wcsl.makespan, 0);
}

TEST(Cancellation, TotalBudgetBoundsPathologicalRun) {
  const Instance inst = make_instance(40, 3, 17);
  SynthesisOptions opts = quick(5, 17);
  opts.optimize.iterations = 1000000;
  opts.optimize.neighborhood = 32;
  opts.total_budget_ms = 150;
  SynthesisContext ctx(inst.app, inst.arch, opts);
  Pipeline pipeline = Pipeline::default_pipeline();
  const Stopwatch watch;
  const SynthesisResult result = pipeline.run(ctx);
  const double seconds = watch.seconds();

  expect_well_formed(result, pipeline, inst.app, opts.fault_model);
  EXPECT_TRUE(result.timed_out);
  // Cancelled within budget + one chunk (one candidate evaluation) of
  // latency; the bound is generous for loaded CI machines but far below
  // the minutes an un-budgeted run would take.
  EXPECT_LT(seconds, 30.0);
  const StageMetrics& first = pipeline.metrics()[0];
  EXPECT_TRUE(first.timed_out);
  EXPECT_GE(first.cancel_latency_seconds, 0.0);
  EXPECT_LT(first.cancel_latency_seconds, first.seconds + 1e-9);
}

// --- batch sweeps survive pathological instances -----------------------------

TEST(Cancellation, BatchContinuesPastTimedOutTasks) {
  std::vector<BatchTask> tasks;
  tasks.push_back({"pathological_a", pathological_ftes(30, 5)});
  tasks.push_back({"tiny", "arch nodes=2 slot=5\nk 1\ndeadline 4000\n"
                           "process A wcet N1=20 N2=30 alpha=5 mu=5 chi=5\n"
                           "process B wcet N1=40 N2=60 alpha=5 mu=5 chi=5\n"
                           "message m A B\n"});
  tasks.push_back({"pathological_b", pathological_ftes(30, 6)});

  ThreadPool pool(2);
  BatchOptions options;
  options.threads = 2;
  options.pool = &pool;
  options.synthesis.optimize.iterations = 1000000;
  options.synthesis.build_schedule_tables = false;
  options.synthesis.stage_budget_ms = 100;

  const Stopwatch watch;
  const BatchReport report = run_batch(tasks, options);
  EXPECT_LT(watch.seconds(), 60.0);

  ASSERT_EQ(report.results.size(), 3u);
  for (const BatchTaskResult& r : report.results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
  }
  // The pathological tasks timed out with a usable partial WCSL; the tiny
  // task in between still synthesized (watchdogs are per-task).
  EXPECT_TRUE(report.results[0].timed_out);
  EXPECT_TRUE(report.results[2].timed_out);
  EXPECT_GT(report.results[0].wcsl, 0);
  EXPECT_EQ(report.failed_count, 0);
  EXPECT_EQ(report.timed_out_count,
            (report.results[1].timed_out ? 1 : 0) + 2);
  // The report carries the timeout in both serializations.
  EXPECT_NE(format_batch_report(report).find("TIMEOUT"), std::string::npos);
  EXPECT_NE(format_batch_report_json(report).find("\"timed_out\": true"),
            std::string::npos);
}

// --- the randomized stress core ----------------------------------------------

// Every run mixes a watchdog thread with pseudo-random fire time, random
// budgets and random thread counts; the invariants (and TSAN in CI) do the
// judging.  Instances are tiny to keep wall time bounded.
TEST(Cancellation, RandomizedStressMatrix) {
  ThreadPool pool(3);
  Rng rng(424242);
  for (int round = 0; round < 12; ++round) {
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(round);
    const Instance inst = make_instance(
        10 + static_cast<int>(rng.uniform_int(0, 6)), 2, seed);
    SynthesisOptions opts = quick(2, seed);
    opts.optimize.threads = rng.chance(0.5) ? 4 : 1;
    opts.optimize.pool = &pool;
    if (rng.chance(0.3)) {
      opts.stage_budget_ms = static_cast<long long>(rng.uniform_int(0, 20));
    }
    if (rng.chance(0.3)) {
      opts.total_budget_ms = static_cast<long long>(rng.uniform_int(0, 40));
    }
    SynthesisContext ctx(inst.app, inst.arch, opts);

    std::thread watchdog;
    if (rng.chance(0.7)) {
      const auto delay =
          std::chrono::microseconds(rng.uniform_int(0, 25000));
      watchdog = std::thread([&ctx, delay] {
        std::this_thread::sleep_for(delay);
        ctx.request_cancel();
      });
    }

    Pipeline pipeline = Pipeline::default_pipeline();
    const SynthesisResult result = pipeline.run(ctx);
    if (watchdog.joinable()) watchdog.join();

    expect_well_formed(result, pipeline, inst.app, opts.fault_model);
  }
}

}  // namespace
}  // namespace ftes
