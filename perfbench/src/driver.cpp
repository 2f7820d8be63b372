// Benchmark driver: runs one workload for one seed, checks every output,
// prints a report (each metric with its unit, sample count and base, plus
// run health) and ends with one JSON line holding the run's metrics.
// perfbench/run.py builds and invokes it; see README.md.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> [--spans <file>] [--commit <id>]
//   perfbench_driver --probe      (set-up probe: start up, print "ready")
//
// Every job runs at --threads 1 and one job computes at a time.  The
// untraced run times each job from call to return (closed loops) or from
// its due time to its response (serve).  The traced run re-runs each job
// decomposed into the calls the default pipeline makes, with a span around
// each, checks the decomposition against Pipeline::run bit for bit, and
// replays neighbour moves of the job's result to time single layer calls.
#include <malloc.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "ftes_writer.h"
#include "gen/taskgen.h"
#include "io/app_parser.h"
#include "open_loop.h"
#include "opt/baselines.h"
#include "opt/eval_context.h"
#include "opt/policy_assignment.h"
#include "sched/list_scheduler.h"
#include "sched/wcsl.h"
#include "serve/result_cache.h"
#include "sim/executor.h"
#include "stats.h"
#include "trace.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace ftes;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// Set-up probes of a serve run, half before and half after the open loop;
// a closed loop probes once after each job.  The median is reported.
constexpr int kServeSetupProbes = 32;
// Window of the server's peak-memory samples on serve.
constexpr double kRssWindowSeconds = 0.5;
// Neighbour moves replayed after each job of a traced run.
constexpr int kReplayMoves = 8;

// The metrics of BENCHMARK.json, in its order: an untraced run reports
// exactly kEndToEnd, a traced run exactly kPerLayer.
const char* const kEndToEnd[] = {"setup_s",        "throughput_per_s",
                                 "latency_p50_s",  "latency_tail_s",
                                 "wcsl_vs_greedy", "peak_rss_mb"};
const char* const kPerLayer[] = {
    "io.parse_s",
    "core.context_s",
    "opt.policy_assignment_s",
    "opt.checkpoint_refine_s",
    "opt.evaluate_full_s",
    "opt.evals",
    "opt.evals_per_s",
    "opt.evaluate_move_s",
    "opt.rebase_s",
    "opt.incremental_speedup",
    "opt.dp_row_reuse",
    "opt.sched_event_resume",
    "opt.rebase_cache_hit",
    "opt.accept_share",
    "opt.snapshot_bytes_copied",
    "sched.list_schedule_s",
    "sched.list_schedule_resume_s",
    "sched.events_per_schedule",
    "sched.wcsl_dag_s",
    "sched.wcsl_dp_s",
    "sched.evaluate_wcsl_s",
    "sched.cond_tables_s",
    "sched.scenarios",
    "sched.table_entries",
    "sim.validate_s",
    "serve.service_s",
    "serve.queue_wait_s",
    "serve.cached_latency_p50_s",
    "serve.cache_hit_share",
    "serve.cache_key_s",
    "serve.retries",
    "loadgen.lag_p99_s",
    "run.steal_share",
    "run.trace_overhead",
};

// ---------------------------------------------------------------- output --

struct Metric {
  double value = 0.0;
  std::string unit;
  long long samples = 0;
  std::string note;  ///< e.g. the tail percentile, or a ratio's base
};

struct RunOutput {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< run health and context

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  void set(const std::string& name, double value, const std::string& unit,
           long long samples, const std::string& note = "") {
    metrics[name] = Metric{value, unit, samples, note};
  }
  void note(const std::string& what) { notes.push_back(what); }
};

std::string number(double v) {
  if (!std::isfinite(v)) v = 1e9;  // failed jobs: beyond any limit
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0.0; }

// ------------------------------------------------------------ run health --

/// Steal and total jiffies summed over all CPUs (/proc/stat).
struct CpuTimes {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return t;
  for (int i = 0; i < 8; ++i) {
    unsigned long long v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  return ratio(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

std::string first_line(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.compare(0, prefix.size(), prefix) == 0) return line;
  }
  return "unknown";
}

void note_health(const std::string& commit, RunOutput& out) {
  std::string cpu = first_line("/proc/cpuinfo", "model name");
  if (const std::size_t colon = cpu.find(": "); colon != std::string::npos) {
    cpu = cpu.substr(colon + 2);
  }
  out.note(std::string("build ") + PERFBENCH_BUILD_TYPE + ", " +
           PERFBENCH_COMPILER + ", commit " + commit);
  out.note("nproc " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
           ", cpu " + cpu + ", loadavg " + first_line("/proc/loadavg", ""));
}

/// Resets this process's peak resident set (VmHWM) to its current one.
void reset_peak_rss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// This process's peak resident set since start or the last reset, in MB.
double peak_rss_mb_self() {
  const std::string line = first_line("/proc/self/status", "VmHWM:");
  return line == "unknown" ? 0.0 : std::atof(line.c_str() + 6) / 1024.0;
}

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Samples a process's peak resident set once per period: reads its
/// VmHWM, then resets it, so each sample is the peak of one window.
class PeakRssSampler {
 public:
  PeakRssSampler(pid_t pid, double period_s)
      : proc_("/proc/" + std::to_string(pid)),
        thread_([this, period_s] { run(period_s); }) {}
  ~PeakRssSampler() { (void)stop(); }
  PeakRssSampler(const PeakRssSampler&) = delete;
  PeakRssSampler& operator=(const PeakRssSampler&) = delete;

  /// Stops sampling; returns the window peaks in MB.
  std::vector<double> stop() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_one();
    if (thread_.joinable()) thread_.join();
    return samples_;
  }

 private:
  void run(double period_s) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::duration<double>(period_s),
                         [this] { return stopping_; })) {
      const std::string line = first_line(proc_ + "/status", "VmHWM:");
      if (line == "unknown") continue;
      samples_.push_back(std::atof(line.c_str() + 6) / 1024.0);
      std::ofstream(proc_ + "/clear_refs") << "5";
    }
  }

  const std::string proc_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::vector<double> samples_;
  std::thread thread_;
};

/// What the driver does before its first job can run: build the thread
/// pool, then parse one small problem, validate it into a SynthesisContext
/// and evaluate one assignment, which faults in the allocator arenas and
/// the evaluator.  No search and no tables.  The set-up probe times it in
/// a fresh process; a closed loop runs it before its first job.
void start_up() {
  (void)ThreadPool::shared();
  TaskGenParams params;
  params.process_count = 12;
  params.node_count = 2;
  Rng rng(2008);
  Application app = generate_application(params, rng);
  app.set_period(0);
  FaultModel model;
  model.k = 2;
  const ParsedProblem p = parse_problem_string(
      write_ftes(app, generate_architecture(params), model));
  SynthesisOptions options;
  options.fault_model = p.model;
  options.optimize.threads = 1;
  SynthesisContext ctx(p.app, p.arch, options);
  (void)ctx.eval().evaluate_full(
      greedy_initial(ctx.app(), ctx.arch(), ctx.model(),
                     options.optimize.space, options.optimize.max_checkpoints));
}

/// Start-up time of a program, spawn to its first output line, `times`
/// times; `input` is written to its stdin first.  Adds to `samples`.
void probe_setup(const std::vector<std::string>& argv,
                 const std::string& input, int times,
                 std::vector<double>& samples, RunOutput& out) {
  for (int i = 0; i < times; ++i) {
    const Clock::time_point t0 = Clock::now();
    ChildProcess child(argv);
    std::string line;
    const bool ok =
        write_all(child.in(), input) && read_line(child.out(), line);
    const double s = seconds_since(t0);
    int status = 0;
    child.wait(status);
    if (!ok || status != 0) {
      out.fail("set-up probe failed: " + argv[0]);
      continue;
    }
    samples.push_back(s);
  }
}

void report_setup(const std::vector<double>& samples, RunOutput& out) {
  out.set("setup_s", median(samples), "s",
          static_cast<long long>(samples.size()),
          "median of program starts to first line, spread over the run");
}

// -------------------------------------------------------- closed loops --

bool same_assignment(const PolicyAssignment& a, const PolicyAssignment& b) {
  if (a.process_count() != b.process_count()) return false;
  for (int i = 0; i < a.process_count(); ++i) {
    if (a.plan(ProcessId{i}) != b.plan(ProcessId{i})) return false;
  }
  return true;
}

/// One job through the public facade: parse, context, default pipeline,
/// and (with tables) the scenario check.
struct PipelineJob {
  ParsedProblem problem;
  SynthesisResult result;
  std::optional<ExecutionReport> report;
  double seconds = 0.0;
};

PipelineJob run_pipeline_job(const std::string& text,
                             SynthesisOptions options) {
  PipelineJob job;
  const Clock::time_point t0 = Clock::now();
  job.problem = parse_problem_string(text);
  options.fault_model = job.problem.model;
  SynthesisContext ctx(job.problem.app, job.problem.arch, options);
  job.result = Pipeline::default_pipeline().run(ctx);
  if (job.result.schedule) {
    job.report =
        check_all_scenarios(ctx.app(), job.result.assignment,
                            *job.result.schedule);
  }
  job.seconds = seconds_since(t0);
  return job;
}

/// The same job decomposed into the calls the default pipeline makes
/// (core/pipeline.cpp), each inside a span.
struct DecomposedJob {
  ParsedProblem problem;
  std::unique_ptr<SynthesisContext> ctx;
  SynthesisResult result;
  std::optional<ExecutionReport> report;
  EvalStats eval;      ///< evaluator counters of the search stages
  SearchStats search;  ///< engine counters of the search stages
  double search_seconds = 0.0;
  double seconds = 0.0;
};

DecomposedJob run_decomposed_job(const std::string& text,
                                 SynthesisOptions options, Tracer& tracer,
                                 int job_id) {
  DecomposedJob d;
  const Clock::time_point t0 = Clock::now();
  tracer.span("job", job_id, [&] {
    d.problem = tracer.span("io.parse", job_id,
                            [&] { return parse_problem_string(text); });
    options.fault_model = d.problem.model;
    tracer.span("core.context", job_id, [&] {
      d.ctx = std::make_unique<SynthesisContext>(d.problem.app,
                                                 d.problem.arch, options);
    });
    SynthesisContext& ctx = *d.ctx;
    SynthesisResult& r = d.result;
    const Clock::time_point s0 = Clock::now();
    tracer.span("opt.policy_assignment", job_id, [&] {
      OptimizeOptions opt = ctx.options().optimize;
      opt.eval = &ctx.eval();
      opt.cancel = &ctx.cancel_token();
      OptimizeResult o =
          optimize_policy_and_mapping(ctx.app(), ctx.arch(), ctx.model(), opt);
      r.assignment = std::move(o.assignment);
      r.evaluations += o.evaluations;
      d.eval.add(o.eval_stats);
      d.search.add(o.search_stats);
    });
    if (options.refine_checkpoints && options.optimize.optimize_checkpoints) {
      tracer.span("opt.checkpoint_refine", job_id, [&] {
        CheckpointOptOptions opt;
        opt.max_checkpoints = options.optimize.max_checkpoints;
        opt.threads = options.optimize.threads;
        opt.pool = options.optimize.pool;
        opt.eval = &ctx.eval();
        opt.cancel = &ctx.cancel_token();
        CheckpointOptResult o = optimize_checkpoints_global(
            ctx.app(), ctx.arch(), ctx.model(), std::move(r.assignment), opt);
        r.assignment = std::move(o.assignment);
        r.evaluations += o.evaluations;
        d.eval.add(o.eval_stats);
        d.search.add(o.search_stats);
      });
    }
    d.search_seconds = seconds_since(s0);
    tracer.span("opt.evaluate_full", job_id, [&] {
      r.wcsl = ctx.eval().evaluate_full(r.assignment);
      r.schedulable = r.wcsl.meets_deadlines(ctx.app());
    });
    if (!options.build_schedule_tables) return;
    tracer.span("sched.cond_tables", job_id, [&] {
      CondScheduleOptions sched = options.schedule;
      sched.threads = options.optimize.threads;
      sched.pool = options.optimize.pool;
      sched.cancel = &ctx.cancel_token();
      try {
        r.schedule = conditional_schedule(ctx.app(), ctx.arch(), r.assignment,
                                          ctx.model(), sched);
        r.schedulable =
            r.schedulable || r.schedule->wcsl <= ctx.app().deadline();
      } catch (const std::length_error&) {
        // As ScheduleTableStage: analytic bound only.
      }
    });
    if (!r.schedule) return;
    tracer.span("sim.validate", job_id, [&] {
      d.report = check_all_scenarios(ctx.app(), r.assignment, *r.schedule);
    });
  });
  d.seconds = seconds_since(t0);
  return d;
}

/// Output checks of a finished job; returns "" when every check passes.
std::string check_result(const ParsedProblem& p, const SynthesisResult& r,
                         const std::optional<ExecutionReport>& report,
                         bool tables) {
  if (r.cancelled || r.timed_out) return "cancelled";
  try {
    r.assignment.validate(p.app, p.model);
  } catch (const std::exception& e) {
    return std::string("invalid assignment: ") + e.what();
  }
  const Time scratch =
      evaluate_wcsl(p.app, p.arch, r.assignment, p.model).makespan;
  if (scratch != r.wcsl.makespan) {
    return "WCSL " + std::to_string(r.wcsl.makespan) + " != from-scratch " +
           std::to_string(scratch);
  }
  if (tables) {
    if (!r.schedule) return "no schedule tables";
    if (!report || !report->ok || !report->violations.empty() ||
        report->cancelled) {
      return "scenario check failed" +
             (report && !report->violations.empty()
                  ? ": " + report->violations.front()
                  : std::string());
    }
  }
  return "";
}

Time greedy_wcsl(const ParsedProblem& p, const SynthesisOptions& o) {
  const PolicyAssignment greedy =
      greedy_initial(p.app, p.arch, p.model, o.optimize.space,
                     o.optimize.max_checkpoints);
  return evaluate_wcsl(p.app, p.arch, greedy, p.model).makespan;
}

/// Bit-for-bit comparison of the decomposed job with Pipeline::run.
std::string compare_results(const SynthesisResult& a,
                            const SynthesisResult& b) {
  if (a.wcsl.makespan != b.wcsl.makespan) return "WCSL differs";
  if (a.wcsl.process_finish != b.wcsl.process_finish) {
    return "process finish times differ";
  }
  if (!same_assignment(a.assignment, b.assignment)) {
    return "assignment differs";
  }
  if (a.evaluations != b.evaluations) return "evaluation count differs";
  if (a.schedulable != b.schedulable) return "schedulability differs";
  if (a.schedule.has_value() != b.schedule.has_value()) {
    return "table presence differs";
  }
  if (a.schedule && (a.schedule->tables.total_entries() !=
                         b.schedule->tables.total_entries() ||
                     a.schedule->scenario_count != b.schedule->scenario_count ||
                     a.schedule->wcsl != b.schedule->wcsl)) {
    return "schedule tables differ";
  }
  return "";
}

/// Layer counters of the traced run that spans do not carry directly.
struct LayerCounters {
  EvalStats eval;
  SearchStats search;
  double search_seconds = 0.0;
  long long jobs = 0;
  long long table_jobs = 0;
  long long scenarios = 0;
  long long table_entries = 0;
  long long resume_events = 0;
  long long resumes = 0;
  double untraced_seconds = 0.0;  ///< Pipeline::run side of the jobs
  double traced_seconds = 0.0;    ///< decomposed side of the same jobs
};

/// A seeded neighbour of `base`: a copy remapped to another allowed node,
/// or a checkpoint count moved by one.  False when the draw is unusable.
bool neighbour_move(const Application& app, const PolicyAssignment& base,
                    Rng& rng, ProcessId& pid, ProcessPlan& plan) {
  pid = ProcessId{static_cast<int>(
      rng.index(static_cast<std::size_t>(app.process_count())))};
  plan = base.plan(pid);
  const Process& proc = app.process(pid);
  CopyPlan& copy = plan.copies[rng.index(plan.copies.size())];
  if (copy.checkpoints >= 1 && rng.chance(0.5)) {
    const int x = copy.checkpoints + (rng.chance(0.5) ? 1 : -1);
    if (x < 1 || x > 8) return false;
    copy.checkpoints = x;
    return true;
  }
  if (proc.fixed_mapping) return false;
  std::vector<NodeId> free_nodes;
  for (const auto& [node, wcet] : proc.wcet) {
    bool used = false;
    for (const CopyPlan& c : plan.copies) used = used || c.node == node;
    if (!used) free_nodes.push_back(node);
  }
  if (free_nodes.empty()) return false;
  std::sort(free_nodes.begin(), free_nodes.end());
  copy.node = free_nodes[rng.index(free_nodes.size())];
  return true;
}

/// Replays kReplayMoves seeded neighbour moves of the job's final
/// assignment through the incremental evaluator and the from-scratch
/// scheduler/WCSL calls, each timed by a span; checks that all agree.
void replay_moves(DecomposedJob& d, std::uint64_t seed, Tracer& tracer,
                  int job_id, LayerCounters& layers, RunOutput& out) {
  const Application& app = d.ctx->app();
  const Architecture& arch = d.ctx->arch();
  const FaultModel& model = d.ctx->model();
  const PolicyAssignment base = d.result.assignment;
  EvalContext& eval = d.ctx->eval();
  (void)eval.rebase(base);
  ScheduleCheckpointLog log;
  (void)list_schedule(app, arch, base, log);
  Rng rng(derive_stream_seed(seed, 0x4e9));
  tracer.span("replay", job_id, [&] {
    int done = 0;
    for (int attempt = 0; done < kReplayMoves && attempt < 8 * kReplayMoves;
         ++attempt) {
      ProcessId pid;
      ProcessPlan plan;
      if (!neighbour_move(app, base, rng, pid, plan)) continue;
      PolicyAssignment candidate = base;
      candidate.plan(pid) = plan;
      try {
        candidate.validate(app, model);
      } catch (const std::exception&) {
        continue;
      }
      ++done;
      const EvalContext::Outcome inc =
          tracer.span("opt.evaluate_move", job_id,
                      [&] { return eval.evaluate_move(pid, plan); });
      const WcslResult full = tracer.span("sched.evaluate_wcsl", job_id, [&] {
        return evaluate_wcsl(app, arch, candidate, model);
      });
      const ListSchedule sched = tracer.span(
          "sched.list_schedule", job_id,
          [&] { return list_schedule(app, arch, candidate); });
      ListScheduleResumeStats rstats;
      const ListSchedule resumed =
          tracer.span("sched.list_schedule_resume", job_id, [&] {
            return list_schedule_resume(app, arch, base, log, candidate, pid,
                                        &rstats);
          });
      layers.resume_events += static_cast<long long>(rstats.events_total);
      ++layers.resumes;
      const WcslDag dag = tracer.span("sched.wcsl_dag", job_id, [&] {
        return build_wcsl_dag(app, arch, candidate, model.k, sched);
      });
      const Time dp_makespan = tracer.span("sched.wcsl_dp", job_id, [&] {
        std::vector<std::vector<Time>> rows(
            static_cast<std::size_t>(dag.g.vertex_count()));
        Time worst = 0;
        for (const int v : dag.g.topological_order()) {
          (void)wcsl_dp_row(dag, v, rows, model.k,
                            rows[static_cast<std::size_t>(v)]);
          worst = std::max(worst, rows[static_cast<std::size_t>(v)]
                                      [static_cast<std::size_t>(model.k)]);
        }
        return worst;
      });
      tracer.span("opt.rebase", job_id,
                  [&] { (void)eval.rebase(candidate, pid); });
      tracer.span("opt.rebase", job_id, [&] { (void)eval.rebase(base, pid); });
      if (inc.makespan != full.makespan || dp_makespan != full.makespan ||
          resumed.makespan != sched.makespan) {
        out.fail("job " + std::to_string(job_id) +
                 ": incremental and from-scratch evaluation disagree");
      }
    }
  });
}

void fold_decomposed(const DecomposedJob& d, LayerCounters& layers) {
  ++layers.jobs;
  layers.eval.add(d.eval);
  layers.search.add(d.search);
  layers.search_seconds += d.search_seconds;
  if (d.result.schedule) {
    ++layers.table_jobs;
    layers.scenarios += d.result.schedule->scenario_count;
    layers.table_entries += d.result.schedule->tables.total_entries();
  }
}

/// The value of `"key": ` in a flat JSON response line ("" if absent).
std::string json_field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t b = at + needle.size();
  if (b < line.size() && line[b] == '"') {
    const std::size_t e = line.find('"', b + 1);
    return line.substr(b + 1, e == std::string::npos ? e : e - b - 1);
  }
  std::size_t e = b;
  while (e < line.size() && line[e] != ',' && line[e] != '}') ++e;
  return line.substr(b, e - b);
}

/// The response's `result` payload (everything after `"result": `).
std::string result_payload(const std::string& line) {
  const std::string needle = "\"result\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "";
  return line.substr(at + needle.size(),
                     line.size() - 1 - at - needle.size());
}

/// The decomposed result against a server response's payload.
std::string compare_payload(const SynthesisResult& r,
                            const std::string& payload) {
  const bool same =
      std::to_string(r.wcsl.makespan) == json_field(payload, "wcsl") &&
      std::to_string(r.evaluations) == json_field(payload, "evaluations") &&
      (r.schedulable ? "true" : "false") ==
          json_field(payload, "schedulable") &&
      (r.schedule ? "true" : "false") == json_field(payload, "tables");
  return same ? "" : "decomposed result differs from the server's";
}

/// A traced job: Pipeline::run and the decomposed calls on the same text,
/// alternating which goes first by job id, compared bit for bit (and with
/// `server_payload`, the job server's answer, when given) and checked;
/// then the move replay.
void run_traced_job(const std::string& text, const SynthesisOptions& options,
                    bool tables, std::uint64_t seed, int id,
                    const std::string& label,
                    const std::string* server_payload, Tracer& tracer,
                    LayerCounters& layers, RunOutput& out) {
  std::optional<PipelineJob> plain;
  if (id % 2 == 0) plain = run_pipeline_job(text, options);
  DecomposedJob dec = run_decomposed_job(text, options, tracer, id);
  if (id % 2 == 1) plain = run_pipeline_job(text, options);
  layers.untraced_seconds += plain->seconds;
  layers.traced_seconds += dec.seconds;
  std::string bad = compare_results(plain->result, dec.result);
  if (bad.empty() && server_payload) {
    bad = compare_payload(dec.result, *server_payload);
  }
  if (bad.empty()) {
    bad = check_result(dec.problem, dec.result, dec.report, tables);
  }
  const std::string what =
      (server_payload ? "request " : "job ") + std::to_string(id);
  std::fprintf(stderr, "  %-12s %-22s %8.3fs  traced %8.3fs%s%s\n",
               what.c_str(), label.c_str(), plain->seconds, dec.seconds,
               bad.empty() ? "" : "  FAILED: ", bad.c_str());
  if (!bad.empty()) {
    out.fail(what + ": " + bad);
    return;
  }
  fold_decomposed(dec, layers);
  replay_moves(dec, seed, tracer, id, layers, out);
}

/// Every per-layer metric a traced run reports; the serve-only ones are
/// set by run_serve and stay 0 on the closed loops.
void add_layer_metrics(const Tracer& tracer, const LayerCounters& layers,
                       RunOutput& out) {
  const auto totals = tracer.totals();
  const auto mean_of = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end()
               ? std::pair<double, long long>{0.0, 0}
               : std::pair<double, long long>{
                     it->second.seconds / static_cast<double>(it->second.calls),
                     it->second.calls};
  };
  for (const char* name :
       {"io.parse", "core.context", "opt.policy_assignment",
        "opt.checkpoint_refine", "opt.evaluate_full", "opt.evaluate_move",
        "opt.rebase", "sched.list_schedule", "sched.list_schedule_resume",
        "sched.wcsl_dag", "sched.wcsl_dp", "sched.evaluate_wcsl",
        "sched.cond_tables", "sim.validate", "serve.cache_key"}) {
    const auto [value, calls] = mean_of(name);
    out.set(std::string(name) + "_s", value, "s", calls, "mean per call");
  }
  const double jobs = static_cast<double>(layers.jobs);
  const EvalStats& e = layers.eval;
  out.set("opt.evals", ratio(static_cast<double>(e.evaluations), jobs),
          "count", layers.jobs, "mean per job");
  out.set("opt.evals_per_s",
          ratio(static_cast<double>(e.evaluations), layers.search_seconds),
          "1/s", e.evaluations, "evaluations / search-stage seconds");
  out.set("opt.incremental_speedup",
          ratio(mean_of("sched.evaluate_wcsl").first,
                mean_of("opt.evaluate_move").first),
          "ratio", mean_of("opt.evaluate_move").second,
          "evaluate_wcsl / evaluate_move on the same moves");
  out.set("opt.dp_row_reuse",
          ratio(static_cast<double>(e.dp_vertices_reused),
                static_cast<double>(e.dp_vertices_total)),
          "ratio", e.dp_vertices_total, "reused / needed DP rows");
  out.set("opt.sched_event_resume",
          ratio(static_cast<double>(e.ls_events_resumed),
                static_cast<double>(e.ls_events_total)),
          "ratio", e.ls_events_total, "resumed / needed placement events");
  out.set("opt.rebase_cache_hit",
          ratio(static_cast<double>(e.rebase_cache_hits),
                static_cast<double>(e.rebases)),
          "ratio", e.rebases, "cache-served / all rebases");
  out.set("opt.accept_share",
          ratio(static_cast<double>(layers.search.accepted_moves),
                static_cast<double>(layers.search.iterations)),
          "ratio", layers.search.iterations, "accepted moves / iterations");
  out.set("opt.snapshot_bytes_copied",
          ratio(static_cast<double>(e.snapshot_bytes_copied), jobs), "bytes",
          layers.jobs, "mean per job");
  out.set("sched.events_per_schedule",
          ratio(static_cast<double>(layers.resume_events),
                static_cast<double>(layers.resumes)),
          "count", layers.resumes, "placement events per candidate schedule");
  const double table_jobs = static_cast<double>(layers.table_jobs);
  out.set("sched.scenarios",
          ratio(static_cast<double>(layers.scenarios), table_jobs), "count",
          layers.table_jobs, "fault scenarios per job with tables");
  out.set("sched.table_entries",
          ratio(static_cast<double>(layers.table_entries), table_jobs),
          "count", layers.table_jobs, "schedule-table entries per job");
  out.set("run.trace_overhead",
          ratio(layers.traced_seconds, layers.untraced_seconds) - 1.0, "ratio",
          layers.jobs, "traced / untraced time of the same jobs - 1");
  const std::pair<const char*, const char*> serve_only[] = {
      {"serve.service_s", "s"},           {"serve.queue_wait_s", "s"},
      {"serve.cached_latency_p50_s", "s"}, {"serve.cache_hit_share", "ratio"},
      {"serve.retries", "count"},         {"loadgen.lag_p99_s", "s"}};
  for (const auto& [name, unit] : serve_only) {
    if (!out.metrics.count(name)) out.set(name, 0.0, unit, 0, "not served");
  }
}

void latency_metrics(const std::vector<double>& latency, RunOutput& out) {
  out.set("latency_p50_s", median(latency), "s",
          static_cast<long long>(latency.size()), "median");
  const Tail t = tail(latency);
  if (t.present) {
    char note[64];
    std::snprintf(note, sizeof note, "p%g, %zu samples beyond", t.percentile,
                  t.beyond);
    out.set("latency_tail_s", t.value, "s",
            static_cast<long long>(latency.size()), note);
  } else {
    out.note("latency_tail_s omitted: " + std::to_string(latency.size()) +
             " samples, fewer than 40");
  }
}

void run_closed_loop(const Workload& w, bool traced, RunOutput& out,
                     Tracer& tracer) {
  LayerCounters layers;
  std::vector<double> latency;
  std::vector<double> quality;
  std::vector<double> setup;
  const std::vector<std::string> probe = {self_exe(), "--probe"};
  // Summed job time and largest job peak per design block.
  std::vector<double> block_seconds(w.jobs.size() / w.block, 0.0);
  std::vector<int> block_done(block_seconds.size(), 0);
  std::vector<double> block_peak_rss(block_seconds.size(), 0.0);
  start_up();
  const CpuTimes cpu0 = read_cpu_times();
  for (std::size_t j = 0; j < w.jobs.size(); ++j) {
    const JobSpec& job = w.jobs[j];
    const SynthesisOptions options = job_options(job);
    const int id = static_cast<int>(j);
    const std::size_t block = j / static_cast<std::size_t>(w.block);
    ++out.attempted;
    try {
      if (!traced) {
        ::malloc_trim(0);
        reset_peak_rss();
        const PipelineJob r = run_pipeline_job(job.text, options);
        block_peak_rss[block] =
            std::max(block_peak_rss[block], peak_rss_mb_self());
        probe_setup(probe, "", 1, setup, out);
        const std::string bad = check_result(r.problem, r.result, r.report,
                                             /*tables=*/false);
        block_seconds[block] += r.seconds;
        std::fprintf(stderr, "  job %3d  %-22s %8.3fs  wcsl %lld%s%s\n", id,
                     job.label.c_str(), r.seconds,
                     static_cast<long long>(r.result.wcsl.makespan),
                     bad.empty() ? "" : "  FAILED: ", bad.c_str());
        if (!bad.empty()) {
          out.fail("job " + std::to_string(id) + ": " + bad);
          latency.push_back(INFINITY);
          continue;
        }
        latency.push_back(r.seconds);
        ++block_done[block];
        quality.push_back(ratio(
            static_cast<double>(r.result.wcsl.makespan),
            static_cast<double>(greedy_wcsl(r.problem, options))));
        continue;
      }
      run_traced_job(job.text, options, /*tables=*/false, job.seed, id,
                     job.label, nullptr, tracer, layers, out);
    } catch (const std::exception& e) {
      out.fail("job " + std::to_string(id) + " threw: " + e.what());
      latency.push_back(INFINITY);
    }
  }
  const double steal = steal_share(cpu0, read_cpu_times());
  if (traced) {
    add_layer_metrics(tracer, layers, out);
    out.set("run.steal_share", steal, "ratio", 1, "steal / all CPU time");
    return;
  }
  out.note("steal share " + number(steal));
  report_setup(setup, out);
  std::vector<double> block_throughput;
  for (std::size_t b = 0; b < block_seconds.size(); ++b) {
    block_throughput.push_back(ratio(block_done[b], block_seconds[b]));
  }
  out.set("throughput_per_s", median(block_throughput), "1/s",
          static_cast<long long>(block_throughput.size()),
          "median over blocks of " + std::to_string(w.block) +
              " jobs of ok jobs / summed call-to-return time");
  latency_metrics(latency, out);
  out.set("wcsl_vs_greedy", mean(quality), "ratio",
          static_cast<long long>(quality.size()), "mean final / greedy WCSL");
  out.set("peak_rss_mb", median(block_peak_rss), "MB",
          static_cast<long long>(block_peak_rss.size()),
          "median over blocks of the largest job peak (driver's VmHWM "
          "during a job, heap trimmed before each)");
}

// ----------------------------------------------------------------- serve --

void run_serve(const Workload& w, bool traced, RunOutput& out,
               Tracer& tracer) {
  const std::size_t n = w.requests.size();
  // Harness-side greedy baselines, before the clock starts.
  std::vector<double> greedy(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (w.requests[i].first >= 0) continue;
    const ParsedProblem p = parse_problem_string(w.requests[i].text);
    greedy[i] = static_cast<double>(
        greedy_wcsl(p, serve_options(w.requests[i])));
  }
  std::vector<std::string> lines;
  for (const ServeRequest& r : w.requests) lines.push_back(r.line);

  const std::vector<std::string> command = serve_command(PERFBENCH_FTES_CLI);
  std::vector<double> setup;
  if (!traced) {
    probe_setup(command, "stats\n", kServeSetupProbes / 2, setup, out);
  }
  const CpuTimes cpu0 = read_cpu_times();
  ChildProcess server(command);
  PeakRssSampler rss(server.pid(), kRssWindowSeconds);
  const OpenLoopResult res =
      run_open_loop(server.in(), server.out(), lines, w.due, "quit\n");
  const std::vector<double> rss_windows = rss.stop();
  int status = 0;
  server.wait(status);
  const double steal = steal_share(cpu0, read_cpu_times());
  if (status != 0) {
    out.fail("server exited with status " + std::to_string(status));
  }

  std::vector<double> latency;
  std::vector<double> quality;
  std::vector<double> service;
  std::vector<double> queue_wait;
  std::vector<double> cached_latency;
  std::vector<double> lag;
  long long retries = 0;
  long long ok = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++out.attempted;
    lag.push_back(res.sent[i] - res.due[i]);
    if (i >= res.responses.size()) {
      out.fail("request " + std::to_string(i) + ": no response");
      latency.push_back(INFINITY);
      continue;
    }
    const std::string& line = res.responses[i];
    const ServeRequest& req = w.requests[i];
    std::string bad;
    if (json_field(line, "id") != "q" + std::to_string(i)) {
      bad = "response out of order";
    } else if (json_field(line, "status") != "ok") {
      bad = "status " + json_field(line, "status");
    } else if (req.first >= 0 &&
               result_payload(line) !=
                   result_payload(res.responses[static_cast<std::size_t>(
                       req.first)])) {
      bad = "repeat payload differs from its first answer";
    }
    if (!bad.empty()) {
      out.fail("request " + std::to_string(i) + ": " + bad);
      latency.push_back(INFINITY);
      continue;
    }
    ++ok;
    const double lat = res.latency(i);
    latency.push_back(lat);
    const double secs = std::atof(json_field(line, "seconds").c_str());
    service.push_back(secs);
    queue_wait.push_back(lat - secs);
    retries += std::atoll(json_field(line, "attempts").c_str()) - 1;
    if (json_field(line, "cached") == "true") cached_latency.push_back(lat);
    if (req.first < 0) {
      quality.push_back(ratio(
          std::atof(json_field(result_payload(line), "wcsl").c_str()),
          greedy[i]));
    }
  }
  if (res.trailer.empty() ||
      json_field(res.trailer.back(), "status") != "stats") {
    out.fail("no final stats line");
  }
  const double lag_p99 = lag.empty() ? 0.0 : percentile(lag, 99.0);
  const double lag_max =
      lag.empty() ? 0.0 : *std::max_element(lag.begin(), lag.end());
  out.note("steal share " + number(steal) + ", generator lateness p99 " +
           number(lag_p99) + " s, max " + number(lag_max) + " s, offered " +
           number(w.offered_rate) + "/s");
  if (!traced) {
    probe_setup(command, "stats\n", kServeSetupProbes / 2, setup, out);
    report_setup(setup, out);
    out.set("throughput_per_s",
            ratio(static_cast<double>(ok), res.elapsed_s), "1/s", ok,
            "ok responses / start to end of the response stream");
    latency_metrics(latency, out);
    out.set("wcsl_vs_greedy", mean(quality), "ratio",
            static_cast<long long>(quality.size()),
            "mean final / greedy WCSL over fresh requests");
    out.set("peak_rss_mb", median(rss_windows), "MB",
            static_cast<long long>(rss_windows.size()),
            "median over 0.5-s windows of the server's VmHWM in the window");
    return;
  }

  out.set("run.steal_share", steal, "ratio", 1, "steal / all CPU time");
  out.set("serve.service_s", mean(service), "s",
          static_cast<long long>(service.size()), "mean response seconds");
  out.set("serve.queue_wait_s", mean(queue_wait), "s",
          static_cast<long long>(queue_wait.size()),
          "mean latency - seconds");
  out.set("serve.cached_latency_p50_s", median(cached_latency), "s",
          static_cast<long long>(cached_latency.size()), "median, cache hits");
  out.set("serve.cache_hit_share",
          ratio(static_cast<double>(cached_latency.size()),
                static_cast<double>(ok)),
          "ratio", ok, "cached / ok responses");
  out.set("serve.retries", static_cast<double>(retries), "count", ok,
          "extra attempts");
  out.set("loadgen.lag_p99_s", lag_p99, "s",
          static_cast<long long>(lag.size()), "p99 of send - due");

  // The layers a request crosses, timed harness-side on the same request
  // texts after the open loop, which tracing never touches.
  LayerCounters layers;
  serve::ResultCache cache(8u << 20);
  for (std::size_t i = 0; i < n && i < res.responses.size(); ++i) {
    const ServeRequest& req = w.requests[i];
    const int id = static_cast<int>(i);
    const ParsedProblem p = tracer.span(
        "io.parse", id, [&] { return parse_problem_string(req.text); });
    tracer.span("serve.cache_key", id, [&] {
      const std::string key = serve::canonical_key(
          p.app, p.arch, p.model, serve_options(req));
      std::string payload;
      if (!cache.lookup(key, payload)) {
        cache.insert(key, result_payload(res.responses[i]));
      }
    });
  }
  for (std::size_t i = 0; i < n && i < res.responses.size(); ++i) {
    const ServeRequest& req = w.requests[i];
    if (req.first >= 0) continue;
    const int id = static_cast<int>(i);
    try {
      const std::string payload = result_payload(res.responses[i]);
      run_traced_job(req.text, serve_options(req), true, req.seed, id,
                     "request", &payload, tracer, layers, out);
    } catch (const std::exception& e) {
      out.fail("request " + std::to_string(i) + " threw: " + e.what());
    }
  }
  add_layer_metrics(tracer, layers, out);
}

// ---------------------------------------------------------------- report --

void print_report(const std::string& workload, std::uint64_t seed, int trace,
                  const Workload& w, const Tracer& tracer,
                  const RunOutput& out) {
  std::printf("perfbench %s  seed %llu  %s  inputs %s (%zu %s)\n",
              workload.c_str(), static_cast<unsigned long long>(seed),
              trace ? "traced" : "untraced", w.fingerprint.c_str(),
              w.open_loop ? w.requests.size() : w.jobs.size(),
              w.open_loop ? "requests" : "jobs");
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  std::printf("  attempted %lld  failed %lld  failed_share %s\n",
              out.attempted, out.failed,
              number(ratio(static_cast<double>(out.failed),
                           static_cast<double>(out.attempted)))
                  .c_str());
  for (const std::string& e : out.errors) {
    std::printf("  FAILED %s\n", e.c_str());
  }
  std::printf("  %-30s %14s %-6s %8s  %s\n", "metric", "value", "unit",
              "samples", "base");
  for (const auto& [name, m] : out.metrics) {
    std::printf("  %-30s %14.6g %-6s %8lld  %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.samples, m.note.c_str());
  }
  if (!trace) return;
  std::printf("  %-30s %8s %12s %12s\n", "span", "calls", "total_s", "self_s");
  for (const auto& [name, t] : tracer.totals()) {
    std::printf("  %-30s %8lld %12.6f %12.6f\n", name.c_str(), t.calls,
                t.seconds, t.self_seconds);
  }
}

/// The last line: the metrics BENCHMARK.json names for this mode.
void print_result(int trace, const RunOutput& out) {
  std::ostringstream json;
  json << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << std::max(out.attempted, 1LL)
       << ", \"failed\": " << out.failed << ", \"metrics\": {";
  bool first = true;
  const auto emit = [&](const char* name) {
    const auto it = out.metrics.find(name);
    if (it == out.metrics.end()) return;
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << number(it->second.value) << ", \"unit\": \"" << it->second.unit
         << "\"}";
    first = false;
  };
  if (trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans <file>] "
               "[--commit <id>]\n"
               "       perfbench_driver --probe\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string spans;
  std::string commit = "unknown";
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    start_up();
    std::printf("ready\n");
    return 0;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string value = argv[i + 1];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (arg == "--spans") {
      spans = value;
    } else if (arg == "--commit") {
      commit = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || workload.empty() || seconds < 1 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: refusing a %s build; measure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 1;
  }
  ::signal(SIGPIPE, SIG_IGN);

  Workload w;
  try {
    w = make_workload(workload, seed, seconds, trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  RunOutput out;
  Tracer tracer;
  note_health(commit, out);
  try {
    if (w.open_loop) {
      run_serve(w, trace == 1, out, tracer);
    } else {
      run_closed_loop(w, trace == 1, out, tracer);
    }
  } catch (const std::exception& e) {
    out.fail(std::string("run aborted: ") + e.what());
  }
  if (trace && !spans.empty()) std::ofstream(spans) << tracer.to_json();
  print_report(workload, seed, trace, w, tracer, out);
  print_result(trace, out);
  return 0;
}
