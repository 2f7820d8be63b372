// Tests of the stage-based synthesis pipeline (core/pipeline.h): the
// default pipeline must be bit-identical to the legacy synthesize() facade
// and to a manually chained run of the stage functions, for any thread
// count; progress callbacks and cancellation must behave as documented;
// per-stage metrics must serialize to JSON.
#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/synthesis.h"
#include "fixtures.h"
#include "gen/taskgen.h"
#include "opt/checkpoint_opt.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;

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
  opts.optimize.iterations = 40;
  opts.optimize.neighborhood = 8;
  opts.optimize.seed = seed;
  return opts;
}

void expect_same_assignment(const PolicyAssignment& a,
                            const PolicyAssignment& b) {
  ASSERT_EQ(a.process_count(), b.process_count());
  for (int i = 0; i < a.process_count(); ++i) {
    const ProcessPlan& pa = a.plan(ProcessId{i});
    const ProcessPlan& pb = b.plan(ProcessId{i});
    ASSERT_EQ(pa.copy_count(), pb.copy_count()) << "process " << i;
    for (int j = 0; j < pa.copy_count(); ++j) {
      const CopyPlan& ca = pa.copies[static_cast<std::size_t>(j)];
      const CopyPlan& cb = pb.copies[static_cast<std::size_t>(j)];
      EXPECT_EQ(ca.node, cb.node) << i << "/" << j;
      EXPECT_EQ(ca.checkpoints, cb.checkpoints) << i << "/" << j;
      EXPECT_EQ(ca.recoveries, cb.recoveries) << i << "/" << j;
    }
  }
}

void expect_same_result(const SynthesisResult& a, const SynthesisResult& b) {
  expect_same_assignment(a.assignment, b.assignment);
  EXPECT_EQ(a.wcsl.makespan, b.wcsl.makespan);
  EXPECT_EQ(a.wcsl.process_finish, b.wcsl.process_finish);
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.evaluations, b.evaluations);
  ASSERT_EQ(a.schedule.has_value(), b.schedule.has_value());
  if (a.schedule) {
    EXPECT_EQ(a.schedule->wcsl, b.schedule->wcsl);
    EXPECT_EQ(a.schedule->scenario_count, b.schedule->scenario_count);
    EXPECT_EQ(a.schedule->tables.total_entries(),
              b.schedule->tables.total_entries());
  }
}

// The headline acceptance criterion: synthesize() (the thin wrapper) and a
// hand-built default Pipeline produce bit-identical results across seeds
// and thread counts.
TEST(Pipeline, DefaultPipelineBitIdenticalToSynthesize) {
  auto f = fig5_app();
  ThreadPool pool(3);  // real helpers even on single-core hosts
  for (std::uint64_t seed : {1ull, 7ull, 2008ull}) {
    for (int threads : {1, 4}) {
      SynthesisOptions opts = quick(2, seed);
      opts.optimize.threads = threads;
      opts.optimize.pool = &pool;

      const SynthesisResult via_facade = synthesize(f.app, f.arch, opts);

      SynthesisContext ctx(f.app, f.arch, opts);
      Pipeline pipeline = Pipeline::default_pipeline();
      const SynthesisResult via_pipeline = pipeline.run(ctx);

      expect_same_result(via_facade, via_pipeline);
      ASSERT_TRUE(via_pipeline.schedule.has_value());
    }
  }
}

// The pipeline must also equal the legacy facade's body: the stage
// functions chained by hand exactly as the monolithic synthesize() did.
TEST(Pipeline, MatchesManuallyChainedStageFunctions) {
  const Instance inst = make_instance(20, 3, 31);
  SynthesisOptions opts = quick(3, 31);
  opts.build_schedule_tables = false;

  OptimizeResult opt = optimize_policy_and_mapping(inst.app, inst.arch,
                                                   opts.fault_model,
                                                   opts.optimize);
  int evaluations = opt.evaluations;
  CheckpointOptOptions refine;
  refine.max_checkpoints = opts.optimize.max_checkpoints;
  CheckpointOptResult refined = optimize_checkpoints_global(
      inst.app, inst.arch, opts.fault_model, std::move(opt.assignment),
      refine);
  evaluations += refined.evaluations;
  const WcslResult wcsl = evaluate_wcsl(inst.app, inst.arch,
                                        refined.assignment, opts.fault_model);

  const SynthesisResult result = synthesize(inst.app, inst.arch, opts);
  expect_same_assignment(result.assignment, refined.assignment);
  EXPECT_EQ(result.wcsl.makespan, wcsl.makespan);
  EXPECT_EQ(result.schedulable, wcsl.meets_deadlines(inst.app));
  EXPECT_EQ(result.evaluations, evaluations);
}

TEST(Pipeline, ThreadCountDoesNotChangeResults) {
  const Instance inst = make_instance(14, 2, 11);
  ThreadPool pool(3);

  SynthesisResult results[2];
  int i = 0;
  for (int threads : {1, 4}) {
    SynthesisOptions opts = quick(2, 11);
    opts.optimize.threads = threads;
    opts.optimize.pool = &pool;
    opts.build_schedule_tables = false;
    results[i++] = synthesize(inst.app, inst.arch, opts);
  }
  expect_same_result(results[0], results[1]);
}

TEST(Pipeline, ReportsProgressPerStage) {
  auto f = fig5_app();
  SynthesisOptions opts = quick(2, 3);

  SynthesisContext ctx(f.app, f.arch, opts);
  std::vector<std::string> events;
  ctx.on_progress([&](const StageProgress& p) {
    EXPECT_EQ(p.count, 3);
    events.push_back(p.stage + (p.finished ? "/done" : "/start"));
  });
  Pipeline pipeline = Pipeline::default_pipeline();
  (void)pipeline.run(ctx);

  const std::vector<std::string> expected{
      "policy_assignment/start", "policy_assignment/done",
      "checkpoint_refine/start", "checkpoint_refine/done",
      "schedule_tables/start",   "schedule_tables/done"};
  EXPECT_EQ(events, expected);
}

TEST(Pipeline, CancelBeforeRunReportsTheStart) {
  auto f = fig5_app();
  SynthesisContext ctx(f.app, f.arch, quick(2, 3));
  ctx.request_cancel();
  Pipeline pipeline = Pipeline::default_pipeline();
  const SynthesisResult result = pipeline.run(ctx);

  // The first stage is never skipped: its search returns the start at its
  // first cancellation point, after the start's own evaluation.  Every
  // later stage is skipped.
  ASSERT_EQ(pipeline.metrics().size(), 3u);
  EXPECT_FALSE(pipeline.metrics()[0].skipped);
  EXPECT_TRUE(pipeline.metrics()[1].skipped);
  EXPECT_TRUE(pipeline.metrics()[2].skipped);
  EXPECT_EQ(result.evaluations, 1);
  EXPECT_NO_THROW(result.assignment.validate(f.app, FaultModel{2}));
  EXPECT_GT(result.wcsl.makespan, 0);
  EXPECT_TRUE(result.cancelled);
  EXPECT_FALSE(result.timed_out);
}

TEST(Pipeline, CancelDuringFirstStageSkipsTheRest) {
  auto f = fig5_app();
  SynthesisContext ctx(f.app, f.arch, quick(2, 3));
  // Cancel as soon as the first stage starts: its tabu loop exits at the
  // next iteration check and the remaining stages never run.
  ctx.on_progress([&](const StageProgress& p) {
    if (p.index == 0 && !p.finished) ctx.request_cancel();
  });
  Pipeline pipeline = Pipeline::default_pipeline();
  const SynthesisResult result = pipeline.run(ctx);

  ASSERT_EQ(pipeline.metrics().size(), 3u);
  EXPECT_FALSE(pipeline.metrics()[0].skipped);
  EXPECT_TRUE(pipeline.metrics()[1].skipped);
  EXPECT_TRUE(pipeline.metrics()[2].skipped);
  // The cancelled tabu search still returns its (validated) incumbent.
  EXPECT_NO_THROW(result.assignment.validate(f.app, FaultModel{2}));
  EXPECT_GE(result.evaluations, 1);
  EXPECT_FALSE(result.schedule.has_value());
}

TEST(Pipeline, StageMetricsCountEvaluationsAndCacheHits) {
  auto f = fig5_app();
  SynthesisContext ctx(f.app, f.arch, quick(2, 5));
  Pipeline pipeline = Pipeline::default_pipeline();
  const SynthesisResult result = pipeline.run(ctx);

  const std::vector<StageMetrics>& metrics = pipeline.metrics();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].stage, "policy_assignment");
  EXPECT_FALSE(metrics[0].skipped);
  EXPECT_GT(metrics[0].eval.evaluations, 1);
  // Cache hits of the schedule layer: candidate placements restored from
  // the base schedule instead of replayed.
  EXPECT_GT(metrics[0].eval.ls_events_total, 0);
  EXPECT_GT(metrics[0].eval.ls_events_resumed, 0);
  // The facade's count is the search engines' (each start plus every
  // candidate); the optimizer stages' evaluator calls account for almost
  // all of it, and the final analysis eval is reported by the tables stage.
  EXPECT_EQ(result.evaluations,
            metrics[0].search.evaluations + metrics[1].search.evaluations);
  EXPECT_LE(metrics[0].eval.evaluations + metrics[1].eval.evaluations,
            result.evaluations);
  EXPECT_EQ(metrics[2].eval.evaluations, 1);
  EXPECT_GE(metrics[0].seconds, 0.0);
}

TEST(Pipeline, SkippedRefineStageIsReported) {
  auto f = fig5_app();
  SynthesisOptions opts = quick(2, 5);
  opts.refine_checkpoints = false;
  SynthesisContext ctx(f.app, f.arch, opts);
  Pipeline pipeline = Pipeline::default_pipeline();
  (void)pipeline.run(ctx);
  EXPECT_TRUE(pipeline.metrics()[1].skipped);
  EXPECT_FALSE(pipeline.metrics()[0].skipped);
  EXPECT_FALSE(pipeline.metrics()[2].skipped);
}

TEST(Pipeline, MetricsSerializeToJson) {
  auto f = fig5_app();
  SynthesisContext ctx(f.app, f.arch, quick(2, 9));
  Pipeline pipeline = Pipeline::default_pipeline();
  (void)pipeline.run(ctx);

  const std::string json = metrics_to_json(pipeline.metrics());
  EXPECT_NE(json.find("\"stage\": \"policy_assignment\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"checkpoint_refine\""), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"schedule_tables\""), std::string::npos);
  EXPECT_NE(json.find("\"sched_events_resumed\""), std::string::npos);
  EXPECT_NE(json.find("\"seconds\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

// The watchdog's StageMetrics fields must serialize (schema in
// docs/CLI.md).
TEST(Pipeline, WatchdogFieldsSerializeToJson) {
  auto f = fig5_app();
  SynthesisContext ctx(f.app, f.arch, quick(2, 9));
  Pipeline pipeline = Pipeline::default_pipeline();
  (void)pipeline.run(ctx);
  const std::string json = metrics_to_json(pipeline.metrics());
  EXPECT_NE(json.find("\"timed_out\": false"), std::string::npos);
  EXPECT_NE(json.find("\"cancel_latency_seconds\""), std::string::npos);
}

// A custom pipeline: running only the policy-assignment stage must leave
// the schedule empty and still produce a valid assignment (the use case of
// tools that explore mappings without paying for tables).
TEST(Pipeline, CustomStageListRunsSubset) {
  auto f = fig5_app();
  SynthesisContext ctx(f.app, f.arch, quick(2, 13));
  Pipeline pipeline;
  pipeline.add(std::make_unique<PolicyAssignmentStage>());
  const SynthesisResult result = pipeline.run(ctx);
  EXPECT_FALSE(result.schedule.has_value());
  EXPECT_NO_THROW(result.assignment.validate(f.app, FaultModel{2}));
  EXPECT_GT(result.evaluations, 1);
}

}  // namespace
}  // namespace ftes
