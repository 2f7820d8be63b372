#include "batch/batch_runner.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/fuzzer.h"
#include "util/json_io.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftes {

namespace {

BatchTaskResult run_one(const BatchTask& task, const BatchOptions& options,
                        std::uint64_t seed) {
  const Stopwatch watch;
  BatchTaskResult r;
  r.name = task.name;
  r.seed = seed;
  try {
    ParsedProblem problem = parse_problem_string(task.text);
    SynthesisOptions synth = options.synthesis;
    synth.fault_model = problem.model;
    synth.optimize.seed = seed;
    // Run the pipeline directly (rather than through synthesize()) to keep
    // the per-stage metrics for the machine-readable report.
    SynthesisContext ctx(problem.app, problem.arch, synth);
    Pipeline pipeline = Pipeline::default_pipeline();
    const SynthesisResult result = pipeline.run(ctx);
    r.ok = true;
    r.schedulable = result.schedulable;
    r.timed_out = result.timed_out;
    r.wcsl = result.wcsl.makespan;
    r.deadline = problem.app.deadline();
    r.evaluations = result.evaluations;
    r.stages = pipeline.metrics();
    if (options.fuzz_trials > 0 && result.schedule &&
        !result.schedule->traces.empty()) {
      const ScheduleFuzzer fuzzer(problem.app, problem.arch,
                                  result.assignment, problem.model,
                                  *result.schedule);
      FuzzOptions fuzz;
      fuzz.trials = options.fuzz_trials;
      fuzz.seed = options.fuzz_seed;
      fuzz.threads = 1;  // the batch already fans out across tasks
      r.stages.push_back(fuzz_stage_metrics(fuzzer.fuzz(fuzz)));
    }
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  } catch (...) {
    // The task boundary must be exhaustive: a non-standard exception from
    // one malformed problem would otherwise propagate through
    // parallel_for's rethrow and kill the whole sweep.
    r.ok = false;
    r.error = "unknown non-standard exception";
  }
  r.seconds = watch.seconds();
  return r;
}

}  // namespace

StageMetrics fuzz_stage_metrics(const FuzzReport& report) {
  StageMetrics m;
  m.stage = "fuzz";
  m.fuzz_trials = report.trials;
  m.fuzz_failing_trials = report.failing_trials;
  m.fuzz_violations = report.violations;
  m.fuzz_worst_completion = report.worst_completion;
  m.seconds = report.seconds;
  return m;
}

std::uint64_t derive_task_seed(std::uint64_t base_seed, std::size_t index) {
  return derive_stream_seed(base_seed,
                            static_cast<std::uint64_t>(index));
}

BatchReport run_batch(const std::vector<BatchTask>& tasks,
                      const BatchOptions& options) {
  const Stopwatch watch;
  BatchReport report;
  report.results.resize(tasks.size());

  const int threads = resolve_threads(options.threads);
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  // lint: cancel-ok -- each task arms its own per-job token from the
  // synthesis budgets inside run_one; there is no batch-level token to
  // poll, and a pre-dispatch poll would make the set of completed tasks
  // timing-dependent instead of "all tasks, each individually budgeted"
  parallel_for(pool, tasks.size(), threads, [&](std::size_t i) {
    report.results[i] =
        run_one(tasks[i], options, derive_task_seed(options.base_seed, i));
  });

  for (const BatchTaskResult& r : report.results) {
    if (!r.ok) {
      ++report.failed_count;
    } else if (r.schedulable) {
      ++report.schedulable_count;
    }
    if (r.timed_out) ++report.timed_out_count;
  }
  report.seconds = watch.seconds();
  return report;
}

std::vector<BatchTask> load_batch_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("batch: '" + dir + "' is not a directory");
  }
  std::vector<fs::path> paths;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".ftes") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<BatchTask> tasks;
  tasks.reserve(paths.size());
  for (const fs::path& p : paths) {
    std::ifstream in(p);
    if (!in) throw std::runtime_error("batch: cannot read '" + p.string() + "'");
    std::ostringstream text;
    text << in.rdbuf();
    tasks.push_back(BatchTask{p.string(), text.str()});
  }
  return tasks;
}

std::string format_batch_report(const BatchReport& report) {
  std::ostringstream out;
  std::size_t width = 4;
  for (const BatchTaskResult& r : report.results) {
    width = std::max(width, r.name.size());
  }
  for (const BatchTaskResult& r : report.results) {
    out << "  " << r.name << std::string(width - r.name.size() + 2, ' ');
    if (!r.ok) {
      out << "ERROR: " << r.error << "\n";
      continue;
    }
    out << "wcsl " << r.wcsl << " / deadline " << r.deadline << "  "
        << (r.schedulable ? "schedulable" : "NOT schedulable")
        << (r.timed_out ? "  TIMEOUT" : "") << "  (" << r.evaluations
        << " evals, seed " << r.seed << ")\n";
  }
  out << "  -- " << report.results.size() << " tasks, "
      << report.schedulable_count << " schedulable, " << report.failed_count
      << " failed";
  if (report.timed_out_count > 0) {
    out << ", " << report.timed_out_count << " timed out";
  }
  out << "\n";
  return out.str();
}

std::string format_batch_report_json(const BatchReport& report) {
  std::ostringstream out;
  out << "{\n  \"tasks\": [\n";
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    const BatchTaskResult& r = report.results[i];
    out << "    {\"name\": ";
    json_escape(out, r.name);
    out << ", \"seed\": " << r.seed
        << ", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.ok) {
      out << ", \"error\": ";
      json_escape(out, r.error);
    }
    out << ", \"schedulable\": " << (r.schedulable ? "true" : "false")
        << ", \"timed_out\": " << (r.timed_out ? "true" : "false")
        << ", \"wcsl\": " << r.wcsl << ", \"deadline\": " << r.deadline
        << ", \"evaluations\": " << r.evaluations << ", \"seconds\": ";
    json_seconds(out, r.seconds);
    out << ", \"stages\": " << metrics_to_json(r.stages) << "}";
    if (i + 1 < report.results.size()) out << ",";
    out << "\n";
  }
  out << "  ],\n  \"task_count\": " << report.results.size()
      << ",\n  \"schedulable_count\": " << report.schedulable_count
      << ",\n  \"failed_count\": " << report.failed_count
      << ",\n  \"timed_out_count\": " << report.timed_out_count
      << ",\n  \"seconds\": ";
  json_seconds(out, report.seconds);
  out << "\n}\n";
  return out.str();
}

}  // namespace ftes
