// ftes_cli: synthesize a fault-tolerant implementation from a problem file.
//
// Usage:
//   ftes_cli <problem.ftes> [options]
//   ftes_cli --batch <dir> [options]
//
// Options:
//   --seed <n>          tabu-search seed (default 1)
//   --iterations <n>    tabu iterations (default 300)
//   --threads <n>       parallelism: neighborhood evaluations in single-
//                       problem mode, concurrent problems in --batch mode
//                       (default 1; 0 = all hardware threads)
//   --batch <dir>       synthesize every *.ftes file under <dir>; reports
//                       the analytic WCSL only (tables are never built),
//                       and the per-problem output flags below (except
//                       --json) are rejected
//   --stage-budget-ms <n>   wall-clock budget per pipeline stage; on expiry
//                       the run is cancelled and the partial result
//                       reported as timed out (-1 = unlimited, default)
//   --total-budget-ms <n>   wall-clock budget for the whole synthesis
//                       (per task in --batch mode; -1 = unlimited)
//   --no-tables         skip schedule-table generation (large designs)
//   --root              emit a root schedule (fully transparent recovery)
//   --json              single mode: dump schedule tables as JSON;
//                       batch mode: emit the machine-readable batch report
//                       (per-task seed, schedulable flag, WCSL, evaluations,
//                       wall-clock, per-stage metrics; see docs/CLI.md)
//   --c-source          dump schedule tables as C source
//   --dot               dump the FT-CPG in GraphViz DOT
//   --gantt             render the fault-free and a worst-case Gantt chart
//   --fuzz <n>          adversarial stress: replay n random admissible
//                       perturbations (fault timing, execution jitter)
//                       against the synthesized tables; any violation makes
//                       the exit status 2.  In --batch mode this builds
//                       tables per task and appends a "fuzz" stage to the
//                       JSON report.  Output is bit-identical for every
//                       --threads value.
//   --fuzz-seed <n>     base seed of the fuzz sweep (default 1)
//   --fuzz-out <file>   write the first (shrunk) counterexample as a
//                       replayable fixture (single mode)
//   --verify-every <n>  single mode: recompute every n-th move evaluation
//                       from scratch and print the mismatch count (0 = off,
//                       the default; see opt/eval_context.h)
//   --replay <file>     replay a fuzz fixture (tests/fixtures/*.fuzz)
//                       against the synthesized tables: apply its table
//                       corruptions, replay its perturbation, and require
//                       every expected violation kind to show up (an empty
//                       expectation requires a clean replay); mismatch ->
//                       exit status 2 (single mode)
//   --serve             job-server mode: read newline-delimited job
//                       requests from stdin, answer one JSON line each
//                       (docs/SERVER.md); job failures are reported
//                       in-band, never through the exit status
//   --serve-jobs <n>    --serve: max concurrently in-flight jobs
//                       (default 1: jobs run on the reader thread; 0 = one
//                       per hardware thread).  The response stream is
//                       byte-identical to --serve-jobs 1 apart from the
//                       wall-clock `seconds` field (docs/SERVER.md)
//   --cache-bytes <n>   --serve: result-cache byte budget (default 8 MiB;
//                       0 disables the cache)
//   --max-retries <n>   --serve: extra attempts for transient job failures
//                       (default 2)
//   --retry-backoff-ms <n>  --serve: base backoff before a retry, doubled
//                       per attempt and capped at 1000 ms (default 0: no
//                       sleeping)
//   --inject <spec>     arm the fault-injection seam with a rule
//                       `site:kind[:every=N][:offset=N][:limit=N]`, kind
//                       one of throw|bad-alloc|cancel (repeatable; see
//                       util/fault_injection.h).  Testing only.
//
// Exit status (the full contract is documented in docs/CLI.md):
//   0  success -- single mode: schedulable and every requested fuzz/replay
//      check passed; batch mode: no task failed; serve mode: the request
//      stream drained (per-job failures are in-band JSON statuses)
//   1  usage, configuration or input errors (unknown flags, invalid flag
//      combinations, unreadable or malformed problem/fixture files)
//   2  domain failures -- single mode: not schedulable, or a fuzz/replay
//      expectation failed; batch mode: at least one task failed
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>

#include "batch/batch_runner.h"
#include "core/pipeline.h"
#include "core/synthesis.h"
#include "ftcpg/builder.h"
#include "io/app_parser.h"
#include "sched/root_schedule.h"
#include "sched/table_export.h"
#include "serve/job_server.h"
#include "sim/executor.h"
#include "sim/fuzzer.h"
#include "sim/gantt.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

using namespace ftes;

namespace {

struct CliOptions {
  std::string input;
  std::string batch_dir;
  std::uint64_t seed = 1;
  int iterations = 300;
  int threads = 1;
  long long stage_budget_ms = -1;
  long long total_budget_ms = -1;
  bool tables = true;
  bool root = false;
  bool json = false;
  bool c_source = false;
  bool dot = false;
  bool gantt = false;
  int fuzz_trials = 0;
  std::uint64_t fuzz_seed = 1;
  std::string fuzz_out;
  std::string replay_path;
  int verify_every = 0;
  bool serve = false;
  int serve_jobs = 1;
  long long cache_bytes = 8ll << 20;
  int max_retries = 2;
  long long retry_backoff_ms = 0;
  std::vector<std::string> inject_specs;
};

int usage() {
  std::fprintf(stderr,
               "usage: ftes_cli <problem.ftes> [--seed n] [--iterations n] "
               "[--threads n] [--stage-budget-ms n] "
               "[--total-budget-ms n] [--no-tables] [--root] [--json] "
               "[--c-source] [--dot] [--gantt] [--fuzz n] [--fuzz-seed n] "
               "[--fuzz-out file] [--replay file] [--verify-every n]\n"
               "       ftes_cli --batch <dir> [--seed n] [--iterations n] "
               "[--threads n] [--stage-budget-ms n] [--total-budget-ms n] "
               "[--json] [--fuzz n] [--fuzz-seed n]\n"
               "       ftes_cli --serve [--seed n] [--iterations n] "
               "[--threads n] [--serve-jobs n] [--cache-bytes n] "
               "[--max-retries n] [--retry-backoff-ms n] "
               "[--inject spec]...\n");
  return 1;
}

bool parse_args(int argc, char** argv, CliOptions& opts) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      opts.seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--iterations" && i + 1 < argc) {
      opts.iterations = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      opts.threads = std::atoi(argv[++i]);
    } else if (arg == "--batch" && i + 1 < argc) {
      opts.batch_dir = argv[++i];
    } else if (arg == "--stage-budget-ms" && i + 1 < argc) {
      opts.stage_budget_ms = std::atoll(argv[++i]);
    } else if (arg == "--total-budget-ms" && i + 1 < argc) {
      opts.total_budget_ms = std::atoll(argv[++i]);
    } else if (arg == "--no-tables") {
      opts.tables = false;
    } else if (arg == "--root") {
      opts.root = true;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--c-source") {
      opts.c_source = true;
    } else if (arg == "--dot") {
      opts.dot = true;
    } else if (arg == "--gantt") {
      opts.gantt = true;
    } else if (arg == "--fuzz" && i + 1 < argc) {
      opts.fuzz_trials = std::atoi(argv[++i]);
    } else if (arg == "--fuzz-seed" && i + 1 < argc) {
      opts.fuzz_seed = static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else if (arg == "--fuzz-out" && i + 1 < argc) {
      opts.fuzz_out = argv[++i];
    } else if (arg == "--replay" && i + 1 < argc) {
      opts.replay_path = argv[++i];
    } else if (arg == "--verify-every" && i + 1 < argc) {
      opts.verify_every = std::atoi(argv[++i]);
    } else if (arg == "--serve") {
      opts.serve = true;
    } else if (arg == "--serve-jobs" && i + 1 < argc) {
      opts.serve_jobs = std::atoi(argv[++i]);
    } else if (arg == "--cache-bytes" && i + 1 < argc) {
      opts.cache_bytes = std::atoll(argv[++i]);
    } else if (arg == "--max-retries" && i + 1 < argc) {
      opts.max_retries = std::atoi(argv[++i]);
    } else if (arg == "--retry-backoff-ms" && i + 1 < argc) {
      opts.retry_backoff_ms = std::atoll(argv[++i]);
    } else if (arg == "--inject" && i + 1 < argc) {
      opts.inject_specs.emplace_back(argv[++i]);
    } else if (arg.rfind("--", 0) == 0) {
      return false;
    } else if (opts.input.empty()) {
      opts.input = arg;
    } else {
      return false;
    }
  }
  return !opts.input.empty() || !opts.batch_dir.empty() || opts.serve;
}

int run_batch_mode(const CliOptions& opts) {
  // Per-problem output flags have nowhere to go in the batch report
  // (--json switches the report itself to JSON instead) -- reject rather
  // than silently ignore.
  if (opts.root || opts.c_source || opts.dot || opts.gantt) {
    std::fprintf(stderr,
                 "ftes_cli: --root/--c-source/--dot/--gantt are not "
                 "available in --batch mode\n");
    return 1;
  }
  if (!opts.replay_path.empty() || !opts.fuzz_out.empty()) {
    std::fprintf(stderr,
                 "ftes_cli: --replay/--fuzz-out are not available in "
                 "--batch mode\n");
    return 1;
  }

  std::vector<BatchTask> tasks;
  try {
    tasks = load_batch_dir(opts.batch_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftes_cli: %s\n", e.what());
    return 1;
  }
  if (tasks.empty()) {
    std::fprintf(stderr, "ftes_cli: no .ftes files under '%s'\n",
                 opts.batch_dir.c_str());
    return 1;
  }

  BatchOptions batch;
  batch.threads = opts.threads;
  batch.base_seed = opts.seed;
  batch.synthesis.optimize.iterations = opts.iterations;
  // Deadline watchdog per task: a pathological instance is cut short and
  // reported as timed out while the sweep continues.
  batch.synthesis.stage_budget_ms = opts.stage_budget_ms;
  batch.synthesis.total_budget_ms = opts.total_budget_ms;
  // The batch report only uses the analytic WCSL; building the
  // (exponential-in-k) schedule tables per task would dominate the run
  // and be thrown away.  --fuzz is the exception: the fuzzer replays
  // against the tables, so it pays for them.
  batch.synthesis.build_schedule_tables = opts.fuzz_trials > 0;
  batch.fuzz_trials = opts.fuzz_trials;
  batch.fuzz_seed = opts.fuzz_seed;

  const BatchReport report = run_batch(tasks, batch);
  if (opts.json) {
    std::printf("%s", format_batch_report_json(report).c_str());
  } else {
    std::printf("ftes batch: %zu problems, %d thread(s), %.2fs\n%s",
                tasks.size(), resolve_threads(opts.threads), report.seconds,
                format_batch_report(report).c_str());
  }
  return report.failed_count == 0 ? 0 : 2;
}

int run_serve_mode(const CliOptions& opts) {
  if (!opts.input.empty() || !opts.batch_dir.empty() || opts.fuzz_trials > 0 ||
      !opts.replay_path.empty() || !opts.fuzz_out.empty() || opts.root ||
      opts.c_source || opts.dot || opts.gantt || opts.json) {
    std::fprintf(stderr,
                 "ftes_cli: --serve takes job requests on stdin; problem "
                 "files and per-problem output flags are not available\n");
    return 1;
  }
  if (opts.cache_bytes < 0 || opts.max_retries < 0 ||
      opts.retry_backoff_ms < 0) {
    std::fprintf(stderr,
                 "ftes_cli: --cache-bytes/--max-retries/--retry-backoff-ms "
                 "must be non-negative\n");
    return 1;
  }
  if (opts.serve_jobs < 0) {
    std::fprintf(stderr,
                 "ftes_cli: --serve-jobs must be >= 0 (0 = one job per "
                 "hardware thread)\n");
    return 1;
  }
  std::vector<fi::FaultRule> rules;
  for (const std::string& spec : opts.inject_specs) {
    try {
      rules.push_back(fi::parse_rule(spec));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ftes_cli: %s\n", e.what());
      return 1;
    }
  }
  fi::configure(std::move(rules));

  serve::ServerOptions server;
  server.threads = opts.threads;
  server.serve_jobs =
      opts.serve_jobs == 0 ? resolve_threads(0) : opts.serve_jobs;
  server.default_seed = opts.seed;
  server.default_iterations = opts.iterations;
  server.cache_bytes = static_cast<std::size_t>(opts.cache_bytes);
  server.max_retries = opts.max_retries;
  server.retry_backoff_ms = opts.retry_backoff_ms;
  serve::JobServer js(server);
  js.serve(std::cin, std::cout);
  fi::disarm();
  // Draining the stream is success: job-level failures are reported
  // in-band, per response, so one bad request cannot fail a service that
  // answered it correctly.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions opts;
  if (!parse_args(argc, argv, opts)) return usage();
  if (opts.verify_every < 0) {
    std::fprintf(stderr, "ftes_cli: --verify-every must be >= 0\n");
    return 1;
  }
  if (opts.verify_every > 0 && (opts.serve || !opts.batch_dir.empty())) {
    // The batch and serve reports have no place for the mismatch count.
    std::fprintf(stderr,
                 "ftes_cli: --verify-every is only available for a single "
                 "problem\n");
    return 1;
  }
  if (opts.serve) return run_serve_mode(opts);
  if (!opts.inject_specs.empty()) {
    // Only the server's soak harness injects faults; the one-shot modes
    // have no retry story, so an armed seam would just corrupt results.
    std::fprintf(stderr, "ftes_cli: --inject requires --serve\n");
    return 1;
  }
  if ((opts.fuzz_trials > 0 || !opts.replay_path.empty()) && !opts.tables) {
    std::fprintf(stderr,
                 "ftes_cli: --fuzz/--replay need the schedule tables "
                 "(drop --no-tables)\n");
    return 1;
  }
  if (!opts.batch_dir.empty()) {
    if (!opts.input.empty()) return usage();  // one mode at a time
    return run_batch_mode(opts);
  }

  std::ifstream in(opts.input);
  if (!in) {
    std::fprintf(stderr, "ftes_cli: cannot open '%s'\n", opts.input.c_str());
    return 1;
  }

  ParsedProblem problem;
  try {
    problem = parse_problem(in);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftes_cli: %s: %s\n", opts.input.c_str(), e.what());
    return 1;
  }

  SynthesisOptions synth;
  synth.fault_model = problem.model;
  synth.optimize.iterations = opts.iterations;
  synth.optimize.seed = opts.seed;
  synth.optimize.threads = opts.threads;
  synth.build_schedule_tables = opts.tables;
  synth.stage_budget_ms = opts.stage_budget_ms;
  synth.total_budget_ms = opts.total_budget_ms;
  synth.optimize.verify_every = opts.verify_every;

  // Drive the stage pipeline directly so per-stage metrics can be shown.
  SynthesisContext ctx(problem.app, problem.arch, synth);
  Pipeline pipeline = Pipeline::default_pipeline();
  const SynthesisResult result = pipeline.run(ctx);

  // Adversarial fuzz sweep (before any printing: its summary joins the
  // Stages line).  Everything printed is thread-count-invariant.
  std::vector<StageMetrics> stage_metrics = pipeline.metrics();
  std::optional<FuzzReport> fuzz_report;
  if (opts.fuzz_trials > 0) {
    if (!result.schedule || result.schedule->traces.empty()) {
      std::fprintf(stderr, "ftes_cli: no schedule tables to fuzz\n");
      return 1;
    }
    const ScheduleFuzzer fuzzer(problem.app, problem.arch, result.assignment,
                                problem.model, *result.schedule);
    FuzzOptions fuzz;
    fuzz.trials = opts.fuzz_trials;
    fuzz.seed = opts.fuzz_seed;
    fuzz.threads = opts.threads;
    fuzz_report = fuzzer.fuzz(fuzz);
    stage_metrics.push_back(fuzz_stage_metrics(*fuzz_report));
  }

  std::printf("ftes: %d processes, %d messages, %d nodes, k = %d\n",
              problem.app.process_count(), problem.app.message_count(),
              problem.arch.node_count(), problem.model.k);
  std::printf("\nPolicy assignment and mapping:\n%s",
              result.assignment.summary(problem.app).c_str());
  std::printf("\nWCSL %lld / deadline %lld -> %s\n",
              static_cast<long long>(result.wcsl.makespan),
              static_cast<long long>(problem.app.deadline()),
              result.schedulable ? "schedulable" : "NOT schedulable");
  // No wall-clock here: single-mode stdout stays bit-identical across
  // --threads values (CI diffs it); timings live in the JSON/batch reports.
  std::printf("Stages:");
  for (const StageMetrics& m : stage_metrics) {
    if (m.skipped) {
      std::printf("  %s skipped;", m.stage.c_str());
      continue;
    }
    if (m.fuzz_trials > 0) {
      std::printf("  %s %lld trials, %lld failing;", m.stage.c_str(),
                  m.fuzz_trials, m.fuzz_failing_trials);
      continue;
    }
    std::printf("  %s %lld evals", m.stage.c_str(), m.eval.evaluations);
    if (m.eval.ls_events_total > 0) {
      std::printf(" (%.1f%% placements resumed)",
                  100.0 * static_cast<double>(m.eval.ls_events_resumed) /
                      static_cast<double>(m.eval.ls_events_total));
    }
    if (m.search.accepted_moves > 0) {
      std::printf(" (%lld moves accepted)", m.search.accepted_moves);
    }
    if (m.timed_out) std::printf(" timed out");
    std::printf(";");
  }
  std::printf("\n");
  if (opts.verify_every > 0) {
    // Printed only on request, so the default output stays unchanged.
    const EvalStats stats = ctx.eval().stats();
    std::printf("Shadow verification: every %d move evaluation(s), %lld "
                "mismatches\n",
                opts.verify_every, stats.verify_mismatches);
  }

  bool fuzz_ok = true;
  bool replay_ok = true;
  if (result.schedule) {
    ExecCheckOptions check;
    check.threads = opts.threads;
    const ExecutionReport report = check_all_scenarios(
        problem.app, result.assignment, *result.schedule, check);
    std::printf("Schedule tables: %d entries over %d scenarios, validation %s\n",
                result.schedule->tables.total_entries(),
                result.schedule->scenario_count, report.ok ? "OK" : "FAILED");
    if (fuzz_report) {
      std::printf("Fuzz: %lld trials, %lld failing, %lld violations, "
                  "worst completion %lld\n",
                  fuzz_report->trials, fuzz_report->failing_trials,
                  fuzz_report->violations,
                  static_cast<long long>(fuzz_report->worst_completion));
      for (const auto& [kind, count] : fuzz_report->violations_by_kind) {
        std::printf("  %s: %lld\n", kind.c_str(), count);
      }
      for (const FuzzCounterexample& cx : fuzz_report->counterexamples) {
        std::printf("  counterexample (trial %lld, %d shrink steps): %s\n",
                    cx.trial, cx.shrink_steps,
                    cx.violations.empty() ? "(no violations after shrink)"
                                          : cx.violations.front().message
                                                .c_str());
      }
      fuzz_ok = fuzz_report->ok();
      if (!opts.fuzz_out.empty()) {
        if (fuzz_report->counterexamples.empty()) {
          std::printf("  fuzz clean: no fixture written to %s\n",
                      opts.fuzz_out.c_str());
        } else {
          const FuzzCounterexample& cx = fuzz_report->counterexamples.front();
          FuzzFixture fixture;
          fixture.perturbation = cx.perturbation;
          for (const FuzzViolation& v : cx.violations) {
            if (std::find(fixture.expect.begin(), fixture.expect.end(),
                          v.kind) == fixture.expect.end()) {
              fixture.expect.push_back(v.kind);
            }
          }
          fixture.note = "shrunk counterexample, trial " +
                         std::to_string(cx.trial) + ", fuzz seed " +
                         std::to_string(opts.fuzz_seed);
          std::ofstream out(opts.fuzz_out);
          if (!out) {
            std::fprintf(stderr, "ftes_cli: cannot write '%s'\n",
                         opts.fuzz_out.c_str());
            return 1;
          }
          out << fixture_to_text(fixture, problem.app, result.assignment);
          std::printf("  wrote fixture %s\n", opts.fuzz_out.c_str());
        }
      }
    }
    if (!opts.replay_path.empty()) {
      std::ifstream fin(opts.replay_path);
      if (!fin) {
        std::fprintf(stderr, "ftes_cli: cannot open '%s'\n",
                     opts.replay_path.c_str());
        return 1;
      }
      try {
        const FuzzFixture fixture =
            parse_fixture(fin, problem.app, result.assignment);
        // Replay against a (possibly corrupted) copy of the tables.
        CondScheduleResult corrupted = *result.schedule;
        apply_corruptions(fixture.corruptions, corrupted.tables);
        const ScheduleFuzzer fuzzer(problem.app, problem.arch,
                                    result.assignment, problem.model,
                                    corrupted);
        const std::vector<FuzzViolation> violations =
            fuzzer.replay(fixture.perturbation);
        std::printf("Replay %s: %zu violation(s)\n", opts.replay_path.c_str(),
                    violations.size());
        for (const FuzzViolation& v : violations) {
          std::printf("  [%s] %s\n", to_string(v.kind), v.message.c_str());
        }
        if (fixture.expect.empty()) {
          replay_ok = violations.empty();
        } else {
          for (FuzzKind kind : fixture.expect) {
            const bool seen =
                std::any_of(violations.begin(), violations.end(),
                            [&](const FuzzViolation& v) {
                              return v.kind == kind;
                            });
            if (!seen) {
              std::printf("  expected %s: NOT observed\n", to_string(kind));
              replay_ok = false;
            }
          }
        }
        std::printf("Replay verdict: %s\n",
                    replay_ok ? "OK (expectations met)" : "FAILED");
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ftes_cli: %s: %s\n", opts.replay_path.c_str(),
                     e.what());
        return 1;
      }
    }
    if (opts.json) {
      std::printf("%s", tables_to_json(result.schedule->tables, problem.arch)
                            .c_str());
    }
    if (opts.c_source) {
      std::printf("%s",
                  tables_to_c_source(result.schedule->tables, problem.arch)
                      .c_str());
    }
    if (opts.gantt && !result.schedule->traces.empty()) {
      std::printf("\nFault-free scenario:\n%s",
                  render_gantt(problem.app, problem.arch, result.assignment,
                               result.schedule->traces.front())
                      .c_str());
      // Worst scenario by makespan.
      const ScenarioTrace* worst = &result.schedule->traces.front();
      for (const ScenarioTrace& tr : result.schedule->traces) {
        if (tr.makespan > worst->makespan) worst = &tr;
      }
      std::printf("\nWorst scenario:\n%s",
                  render_gantt(problem.app, problem.arch, result.assignment,
                               *worst)
                      .c_str());
    }
  }

  if (opts.root) {
    const RootSchedule root = build_root_schedule(
        problem.app, problem.arch, result.assignment, problem.model);
    std::printf("\n%s", root.to_text(problem.app, problem.arch).c_str());
  }

  if (!result.schedule && !opts.replay_path.empty()) {
    std::fprintf(stderr, "ftes_cli: no schedule tables to replay against\n");
    return 1;
  }

  if (opts.dot) {
    const Ftcpg g =
        build_ftcpg(problem.app, result.assignment, problem.model);
    std::printf("%s", g.to_dot().c_str());
  }

  return (result.schedulable && fuzz_ok && replay_ok) ? 0 : 2;
}
