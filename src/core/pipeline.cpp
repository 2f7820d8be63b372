#include "core/pipeline.h"

#include <cassert>
#include <sstream>
#include <utility>

#include "util/fault_injection.h"
#include "util/json_io.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftes {

namespace {

void fill_eval_metrics(StageMetrics& metrics, const EvalStats& spent) {
  metrics.evaluations = spent.evaluations;
  metrics.sched_events_total = spent.ls_events_total;
  metrics.sched_events_resumed = spent.ls_events_resumed;
  metrics.rebase_cache_hits = spent.rebase_cache_hits;
}

void fill_search_metrics(StageMetrics& metrics, const SearchStats& stats) {
  metrics.search_iterations = stats.iterations;
  metrics.search_accepted = stats.accepted_moves;
  metrics.search_tabu_rejected = stats.tabu_rejected;
  metrics.search_aspiration = stats.aspiration_accepted;
}

bool same_assignment(const PolicyAssignment& a, const PolicyAssignment& b) {
  if (a.process_count() != b.process_count()) return false;
  for (int i = 0; i < a.process_count(); ++i) {
    if (a.plan(ProcessId{i}) != b.plan(ProcessId{i})) return false;
  }
  return true;
}

}  // namespace

std::string StageMetrics::to_json() const {
  std::ostringstream out;
  out << "{\"stage\": ";
  json_escape(out, stage);
  out << ", \"skipped\": " << (skipped ? "true" : "false")
      << ", \"evaluations\": " << evaluations
      << ", \"sched_events_total\": " << sched_events_total
      << ", \"sched_events_resumed\": " << sched_events_resumed
      << ", \"rebase_cache_hits\": " << rebase_cache_hits
      << ", \"search_iterations\": " << search_iterations
      << ", \"search_accepted\": " << search_accepted
      << ", \"search_tabu_rejected\": " << search_tabu_rejected
      << ", \"search_aspiration\": " << search_aspiration
      << ", \"spec_hits\": " << spec_hits
      << ", \"spec_misses\": " << spec_misses << ", \"spec_seconds\": ";
  json_seconds(out, spec_seconds);
  out << ", \"timed_out\": " << (timed_out ? "true" : "false")
      << ", \"cancel_latency_seconds\": ";
  json_seconds(out, cancel_latency_seconds);
  out << ", \"fuzz_trials\": " << fuzz_trials
      << ", \"fuzz_failing_trials\": " << fuzz_failing_trials
      << ", \"fuzz_violations\": " << fuzz_violations
      << ", \"fuzz_worst_completion\": " << fuzz_worst_completion
      << ", \"result_cache_hits\": " << result_cache_hits
      << ", \"result_cache_misses\": " << result_cache_misses
      << ", \"result_cache_evictions\": " << result_cache_evictions
      << ", \"seconds\": ";
  json_seconds(out, seconds);
  out << "}";
  return out.str();
}

std::string metrics_to_json(const std::vector<StageMetrics>& stages) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    if (i > 0) out << ", ";
    out << stages[i].to_json();
  }
  out << "]";
  return out.str();
}

SynthesisContext::SynthesisContext(Application app, Architecture arch,
                                   SynthesisOptions options)
    : app_(std::move(app)),
      arch_(std::move(arch)),
      options_(std::move(options)),
      eval_(app_, arch_, options_.fault_model) {
  app_.validate(arch_);
  options_.fault_model.validate();
}

ThreadPool& SynthesisContext::pool() const {
  return options_.optimize.pool ? *options_.optimize.pool
                                : ThreadPool::shared();
}

// --- speculative stage execution --------------------------------------------

SpeculationTask::SpeculationTask(SynthesisContext& ctx,
                                 PolicyAssignment incumbent)
    : app_(ctx.app()),
      arch_(ctx.arch()),
      model_(ctx.model()),
      sched_(ctx.options().schedule),
      build_tables_(ctx.options().build_schedule_tables),
      incumbent_(std::move(incumbent)),
      cancel_(&ctx.cancel_token()) {
  sched_.threads = ctx.options().optimize.threads;
  sched_.pool = ctx.options().optimize.pool;
  sched_.cancel = &cancel_;
}

std::shared_ptr<SpeculationTask> SpeculationTask::launch(
    SynthesisContext& ctx, const PolicyAssignment& incumbent) {
  std::shared_ptr<SpeculationTask> task(new SpeculationTask(ctx, incumbent));
  // The job only captures the shared_ptr: if the task is abandoned before a
  // worker picks it up, run() no-ops without touching the ctx references.
  ctx.pool().submit([task] { task->run(); });
  return task;
}

void SpeculationTask::run() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != kPending) return;  // claimed inline or abandoned
    state_ = kRunning;
  }
  run_body();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_ = kDone;
  }
  cv_.notify_all();
}

void SpeculationTask::run_body() {
  const Stopwatch watch;
  // No exception may escape: this runs on a pool worker (an escape would
  // terminate the process) and finish()/abandon() wait for kDone.  The
  // error is rethrown by finish(), where the serial stage would have
  // thrown it; abandon() swallows it with the rest of the dead result.
  try {
    if (cancel_.poll()) {  // already dead: let abandon() drain instantly
      ok_ = false;
    } else {
      // Full evaluation, deliberately not through the shared
      // EvalContext (the refinement stage owns it right now):
      // bit-identical to the serial stage's evaluate_full, which adoption
      // asserts.
      wcsl_ = evaluate_wcsl(app_, arch_, incumbent_, model_);
      ok_ = !cancel_.poll();
      if (ok_ && build_tables_) {
        try {
          schedule_ = conditional_schedule(app_, arch_, incumbent_, model_,
                                           sched_);
        } catch (const CancelledError&) {
          ok_ = false;
        } catch (const std::length_error& e) {
          // Same downgrade as the serial stage: analytic bound only.
          FTES_LOG(kInfo) << "speculative tables skipped: " << e.what();
        }
      }
    }
  } catch (...) {
    error_ = std::current_exception();
    ok_ = false;
  }
  seconds_ = watch.seconds();
}

bool SpeculationTask::finish() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ == kPending) {
    state_ = kRunning;
    lock.unlock();
    run_body();
    lock.lock();
    state_ = kDone;
    cv_.notify_all();
  } else {
    cv_.wait(lock, [&] { return state_ == kDone; });
  }
  if (error_) std::rethrow_exception(error_);
  return ok_;
}

void SpeculationTask::abandon() {
  cancel_.request_cancel();
  std::unique_lock<std::mutex> lock(mutex_);
  if (state_ == kPending) {
    state_ = kAbandoned;
    return;
  }
  cv_.wait(lock, [&] { return state_ == kDone || state_ == kAbandoned; });
}

// --- stages -----------------------------------------------------------------

void PolicyAssignmentStage::run(SynthesisContext& ctx, SynthesisState& state,
                                StageMetrics& metrics) {
  OptimizeOptions opt = ctx.options().optimize;
  opt.eval = &ctx.eval();
  opt.cancel = &ctx.cancel_token();
  OptimizeResult r =
      optimize_policy_and_mapping(ctx.app(), ctx.arch(), ctx.model(), opt);
  state.assignment = std::move(r.assignment);
  state.wcsl_bound = r.wcsl;
  state.schedulable = r.schedulable;
  state.evaluations += r.evaluations;
  fill_eval_metrics(metrics, r.eval_stats);
  fill_search_metrics(metrics, r.search_stats);
}

void CheckpointRefineStage::run(SynthesisContext& ctx, SynthesisState& state,
                                StageMetrics& metrics) {
  const SynthesisOptions& options = ctx.options();
  if (!options.refine_checkpoints || !options.optimize.optimize_checkpoints) {
    metrics.skipped = true;
    return;
  }
  CheckpointOptOptions opt;
  opt.max_checkpoints = options.optimize.max_checkpoints;
  opt.threads = options.optimize.threads;
  opt.pool = options.optimize.pool;
  opt.eval = &ctx.eval();
  opt.cancel = &ctx.cancel_token();
  CheckpointOptResult r = optimize_checkpoints_global(
      ctx.app(), ctx.arch(), ctx.model(), std::move(state.assignment), opt);
  state.assignment = std::move(r.assignment);
  state.wcsl_bound = r.wcsl;
  state.evaluations += r.evaluations;
  fill_eval_metrics(metrics, r.eval_stats);
  fill_search_metrics(metrics, r.search_stats);
}

void ScheduleTableStage::run(SynthesisContext& ctx, SynthesisState& state,
                             StageMetrics& metrics) {
  const SynthesisOptions& options = ctx.options();
  std::shared_ptr<SpeculationTask> spec = state.speculation;
  const EvalStats before = ctx.eval().stats();
  state.wcsl = ctx.eval().evaluate_full(state.assignment);
  state.schedulable = state.wcsl.meets_deadlines(ctx.app());
  fill_eval_metrics(metrics, ctx.eval().stats().since(before));
  if (!options.build_schedule_tables) {
    return;  // an (impossible) stray speculation drains in Pipeline::run
  }

  CancellationToken& cancel = ctx.cancel_token();
  if (spec && !same_assignment(spec->incumbent(), state.assignment)) {
    // Refinement improved past the incumbent: the speculative tables
    // describe a dead assignment.  Cancel it but do NOT join here -- the
    // serial rebuild below overlaps with the dead task winding down, and
    // Pipeline::run's drain guard (which still holds it through
    // state.speculation) joins afterwards.
    spec->discard();
    metrics.spec_misses = 1;
    spec.reset();
  }
  if (spec) {
    state.speculation.reset();  // consumed: finish() below joins it
    const bool usable = spec->finish() && !cancel.cancelled();
    metrics.spec_seconds = spec->seconds();
    if (usable && spec->wcsl().makespan == state.wcsl.makespan &&
        spec->wcsl().process_finish == state.wcsl.process_finish) {
      // Adoption: bit-identical to the serial stage by construction (the
      // equality above cross-checks the task's analysis against the
      // stage's own; conditional_schedule is a pure function of the
      // adopted assignment).
      metrics.spec_hits = 1;
      state.schedule = std::move(spec->schedule());
      if (state.schedule) {
        state.schedulable = state.schedulable ||
                            state.schedule->wcsl <= ctx.app().deadline();
      }
      return;
    }
    assert(!usable && "speculative WCSL diverged from evaluate_full");
    metrics.spec_misses = 1;
  }

  if (cancel.poll()) return;
  try {
    CondScheduleOptions sched = options.schedule;
    sched.threads = options.optimize.threads;
    sched.pool = options.optimize.pool;
    sched.cancel = &cancel;
    state.schedule = conditional_schedule(ctx.app(), ctx.arch(),
                                          state.assignment, ctx.model(),
                                          sched);
    // The scenario-exact WCSL can only be tighter than the analytic bound.
    state.schedulable = state.schedulable ||
                        state.schedule->wcsl <= ctx.app().deadline();
  } catch (const CancelledError&) {
    // Tables from a scenario subset would be wrong, not partial: return
    // the analytic result only; the pipeline reports the timeout.
  } catch (const std::length_error& e) {
    FTES_LOG(kInfo) << "schedule tables skipped: " << e.what();
  }
}

// --- pipeline ---------------------------------------------------------------

Pipeline& Pipeline::add(std::unique_ptr<Stage> stage) {
  stages_.push_back(std::move(stage));
  return *this;
}

SynthesisResult Pipeline::run(SynthesisContext& ctx) {
  metrics_.assign(stages_.size(), StageMetrics{});
  SynthesisState state;
  // A speculation nobody consumed (its consumer was skipped by a cancel, a
  // custom stage list never reached it, or a stage / progress callback
  // threw) must drain before the context it references can go away --
  // including on the exceptional path, hence the scope guard.
  struct SpeculationDrain {
    SynthesisState& state;
    ~SpeculationDrain() {
      if (state.speculation) state.speculation->abandon();
    }
  } drain{state};
  const SynthesisOptions& options = ctx.options();
  CancellationToken& cancel = ctx.cancel_token();
  if (options.total_budget_ms >= 0) {
    cancel.arm_total_budget_ms(options.total_budget_ms);
  }
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    StageMetrics& metrics = metrics_[i];
    metrics.stage = stage.name();
    if (cancel.poll()) {
      metrics.skipped = true;
      metrics.timed_out = cancel.deadline_expired();
      continue;
    }
    if (options.speculate && options.build_schedule_tables &&
        !state.speculation && stage.refines_incumbent()) {
      for (std::size_t j = i + 1; j < stages_.size(); ++j) {
        if (stages_[j]->consumes_speculation()) {
          state.speculation = SpeculationTask::launch(ctx, state.assignment);
          break;
        }
      }
    }
    StageProgress progress{static_cast<int>(i), stage_count(), stage.name(),
                           false};
    ctx.report_progress(progress);
    if (options.stage_budget_ms >= 0) {
      cancel.arm_stage_budget_ms(options.stage_budget_ms);
    }
    const Stopwatch watch;
    FTES_FAULT_POINT("pipeline.stage");
    stage.run(ctx, state, metrics);
    metrics.seconds = watch.seconds();
    cancel.clear_stage_deadline();
    if (cancel.cancelled()) {
      metrics.timed_out = cancel.deadline_expired();
      metrics.cancel_latency_seconds = cancel.seconds_since_cancel();
    }
    progress.finished = true;
    ctx.report_progress(progress);
  }
  SynthesisResult result;
  result.assignment = std::move(state.assignment);
  result.wcsl = std::move(state.wcsl);
  if (result.wcsl.process_finish.empty() && state.wcsl_bound > 0) {
    // The analysis stage never ran (cancelled pipeline, or a custom stage
    // list without it): surface the optimizer stages' analytic bound so
    // the partial result still reports a meaningful worst case.
    result.wcsl.makespan = state.wcsl_bound;
  }
  result.schedule = std::move(state.schedule);
  result.schedulable = state.schedulable;
  result.evaluations = state.evaluations;
  result.cancelled = cancel.cancelled();
  result.timed_out = cancel.deadline_expired();
  return result;
}

Pipeline Pipeline::default_pipeline() {
  Pipeline pipeline;
  pipeline.add(std::make_unique<PolicyAssignmentStage>())
      .add(std::make_unique<CheckpointRefineStage>())
      .add(std::make_unique<ScheduleTableStage>());
  return pipeline;
}

}  // namespace ftes
