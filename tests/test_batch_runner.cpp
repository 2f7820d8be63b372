// Tests of the parallel batch-synthesis engine (batch/batch_runner.h) and
// of the thread-count invariance of the parallel optimizers: the same
// seeds must give the same best costs whether evaluation is serial or
// concurrent.
#include "batch/batch_runner.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "fixtures.h"
#include "opt/policy_assignment.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

constexpr const char* kQuickstartProblem = R"(
arch nodes=2 slot=5
k 2
deadline 600
process P1 wcet N1=20 N2=30 alpha=5 mu=5 chi=5
process P2 wcet N1=40 N2=60 alpha=5 mu=5 chi=5
process P3 wcet N1=60 alpha=5 mu=5 chi=5
process P4 wcet N1=40 N2=60 alpha=5 mu=5 chi=5
process P5 wcet N1=40 N2=60 alpha=5 mu=5 chi=5
message m1 P1 P2
message m2 P1 P3
message m3 P2 P4
message m4 P3 P5
)";

std::vector<BatchTask> make_tasks(int count) {
  std::vector<BatchTask> tasks;
  for (int i = 0; i < count; ++i) {
    tasks.push_back(BatchTask{"task" + std::to_string(i), kQuickstartProblem});
  }
  return tasks;
}

TEST(TaskSeeds, DependOnlyOnBaseSeedAndIndex) {
  EXPECT_EQ(derive_task_seed(1, 0), derive_task_seed(1, 0));
  EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(1, 1));
  EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(2, 0));
}

TEST(BatchRunner, SynthesizesEveryTaskInOrder) {
  BatchOptions options;
  options.threads = 2;
  options.synthesis.optimize.iterations = 40;
  options.synthesis.build_schedule_tables = false;
  const BatchReport report = run_batch(make_tasks(5), options);

  ASSERT_EQ(report.results.size(), 5u);
  EXPECT_EQ(report.failed_count, 0);
  EXPECT_EQ(report.schedulable_count, 5);
  for (int i = 0; i < 5; ++i) {
    const BatchTaskResult& r = report.results[static_cast<std::size_t>(i)];
    EXPECT_EQ(r.name, "task" + std::to_string(i));
    EXPECT_TRUE(r.ok);
    EXPECT_TRUE(r.schedulable);
    EXPECT_GT(r.wcsl, 0);
    EXPECT_EQ(r.deadline, 600);
    EXPECT_EQ(r.seed, derive_task_seed(options.base_seed,
                                       static_cast<std::size_t>(i)));
  }
}

TEST(BatchRunner, ThreadCountDoesNotChangeResults) {
  // An explicit multi-worker pool keeps this invariant meaningful on
  // single-core machines, where the shared pool has no workers and both
  // runs would otherwise degrade to the same inline loop.
  ThreadPool pool(3);
  BatchOptions options;
  options.pool = &pool;
  options.synthesis.optimize.iterations = 40;
  options.synthesis.build_schedule_tables = false;

  options.threads = 1;
  const BatchReport serial = run_batch(make_tasks(6), options);
  options.threads = 4;
  const BatchReport parallel = run_batch(make_tasks(6), options);

  ASSERT_EQ(serial.results.size(), parallel.results.size());
  for (std::size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i].wcsl, parallel.results[i].wcsl) << i;
    EXPECT_EQ(serial.results[i].schedulable, parallel.results[i].schedulable);
    EXPECT_EQ(serial.results[i].evaluations, parallel.results[i].evaluations);
    EXPECT_EQ(serial.results[i].seed, parallel.results[i].seed);
  }
}

TEST(BatchRunner, BadTaskFailsAloneAndIsReported) {
  std::vector<BatchTask> tasks = make_tasks(2);
  tasks.insert(tasks.begin() + 1,
               BatchTask{"broken", "arch nodes=0 slot=5\ndeadline 100\n"});
  BatchOptions options;
  options.threads = 3;
  options.synthesis.optimize.iterations = 20;
  options.synthesis.build_schedule_tables = false;
  const BatchReport report = run_batch(tasks, options);

  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.failed_count, 1);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_FALSE(report.results[1].error.empty());
  EXPECT_TRUE(report.results[2].ok);

  const std::string text = format_batch_report(report);
  EXPECT_NE(text.find("broken"), std::string::npos);
  EXPECT_NE(text.find("ERROR"), std::string::npos);
  EXPECT_NE(text.find("1 failed"), std::string::npos);
}

TEST(BatchRunner, JsonReportCarriesTasksAndStageMetrics) {
  BatchOptions options;
  options.synthesis.optimize.iterations = 20;
  options.synthesis.build_schedule_tables = false;
  BatchReport report = run_batch(make_tasks(2), options);
  ASSERT_EQ(report.results.size(), 2u);
  ASSERT_EQ(report.results[0].stages.size(), 3u);
  EXPECT_EQ(report.results[0].stages[0].stage, "policy_assignment");
  EXPECT_GT(report.results[0].stages[0].eval.ls_events_resumed, 0);

  const std::string json = format_batch_report_json(report);
  EXPECT_NE(json.find("\"tasks\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"task0\""), std::string::npos);
  EXPECT_NE(json.find("\"seed\": "), std::string::npos);
  EXPECT_NE(json.find("\"schedulable\": true"), std::string::npos);
  EXPECT_NE(json.find("\"wcsl\": "), std::string::npos);
  EXPECT_NE(json.find("\"evaluations\": "), std::string::npos);
  EXPECT_NE(json.find("\"stage\": \"policy_assignment\""), std::string::npos);
  EXPECT_NE(json.find("\"task_count\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"failed_count\": 0"), std::string::npos);

  // Failures surface as "ok": false with an error string.
  report.results[1].ok = false;
  report.results[1].error = R"(bad "quote")";
  const std::string with_error = format_batch_report_json(report);
  EXPECT_NE(with_error.find("\"ok\": false"), std::string::npos);
  EXPECT_NE(with_error.find("\"error\": \"bad \\\"quote\\\"\""),
            std::string::npos);
}

TEST(BatchRunner, MalformedFtesFileInDirFailsAloneNotTheSweep) {
  // Regression for the serve-era hardening: a malformed .ftes dropped into
  // a batch directory must yield one failed task, not a thrown-out sweep.
  const std::string dir = ::testing::TempDir() + "ftes_batch_malformed";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/a_good.ftes") << kQuickstartProblem;
  std::ofstream(dir + "/b_bad.ftes") << "arch nodes=2 slot=5\n\x01\x02 what\n";
  std::ofstream(dir + "/c_truncated.ftes")
      << "arch nodes=2 slot=5\nk 2\nprocess P1 wcet";
  BatchOptions options;
  options.threads = 2;
  options.synthesis.optimize.iterations = 20;
  options.synthesis.build_schedule_tables = false;
  const BatchReport report = run_batch(load_batch_dir(dir), options);
  std::filesystem::remove_all(dir);

  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.failed_count, 2);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_NE(report.results[1].error.find("line"), std::string::npos);
  EXPECT_FALSE(report.results[2].ok);
}

#ifndef FTES_FI_DISABLED
TEST(BatchRunner, InjectedStageFaultIsCapturedPerTask) {
  // With threads=1 the stage-execution order is deterministic: each of
  // the 3 tasks passes 3 pipeline stage points, so hit 4 (0-based) is the
  // middle task's second stage.  The fault must land in that task's error
  // slot and nowhere else.
  struct Guard {
    ~Guard() { fi::disarm(); }
  } guard;
  fi::configure(
      {fi::parse_rule("pipeline.stage:throw:every=1000:offset=4:limit=1")});
  BatchOptions options;
  options.threads = 1;
  options.synthesis.optimize.iterations = 20;
  options.synthesis.build_schedule_tables = false;
  const BatchReport report = run_batch(make_tasks(3), options);

  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.failed_count, 1);
  EXPECT_TRUE(report.results[0].ok);
  EXPECT_FALSE(report.results[1].ok);
  EXPECT_NE(report.results[1].error.find("injected fault"), std::string::npos);
  EXPECT_TRUE(report.results[2].ok);
}
#endif

TEST(BatchRunner, LoadBatchDirRejectsMissingDirectory) {
  EXPECT_THROW((void)load_batch_dir("/nonexistent/ftes/batch/dir"),
               std::runtime_error);
}

TEST(BatchRunner, LoadBatchDirReadsSortedFtesFiles) {
  const std::string dir = ::testing::TempDir() + "ftes_batch_test";
  std::filesystem::create_directories(dir);
  for (const char* name : {"b.ftes", "a.ftes", "ignored.txt"}) {
    std::ofstream(dir + "/" + name) << kQuickstartProblem;
  }
  const std::vector<BatchTask> tasks = load_batch_dir(dir);
  ASSERT_EQ(tasks.size(), 2u);
  EXPECT_NE(tasks[0].name.find("a.ftes"), std::string::npos);
  EXPECT_NE(tasks[1].name.find("b.ftes"), std::string::npos);
  EXPECT_EQ(tasks[0].text, kQuickstartProblem);
  std::filesystem::remove_all(dir);
}

// The tentpole invariant: the tabu search's parallel neighborhood
// evaluation must be bit-compatible with the serial one.
TEST(ParallelOptimizer, SameSeedSameBestCostForAnyThreadCount) {
  const auto f = ftes::testing::fig3_app();
  const Architecture arch = ftes::testing::two_node_arch();
  const FaultModel model{2};

  ThreadPool pool(3);  // real helpers even on single-core hosts
  OptimizeOptions options;
  options.pool = &pool;
  options.iterations = 60;
  options.seed = 2008;

  options.threads = 1;
  const OptimizeResult serial =
      optimize_policy_and_mapping(f.app, arch, model, options);
  options.threads = 4;
  const OptimizeResult parallel =
      optimize_policy_and_mapping(f.app, arch, model, options);

  EXPECT_EQ(serial.wcsl, parallel.wcsl);
  EXPECT_EQ(serial.schedulable, parallel.schedulable);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  for (int i = 0; i < f.app.process_count(); ++i) {
    const ProcessPlan& a = serial.assignment.plan(ProcessId{i});
    const ProcessPlan& b = parallel.assignment.plan(ProcessId{i});
    ASSERT_EQ(a.copy_count(), b.copy_count()) << i;
    for (int j = 0; j < a.copy_count(); ++j) {
      const CopyPlan& ca = a.copies[static_cast<std::size_t>(j)];
      const CopyPlan& cb = b.copies[static_cast<std::size_t>(j)];
      EXPECT_EQ(ca.node, cb.node);
      EXPECT_EQ(ca.checkpoints, cb.checkpoints);
      EXPECT_EQ(ca.recoveries, cb.recoveries);
    }
  }
}

}  // namespace
}  // namespace ftes
