#include "opt/eval_context.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "opt/policy_assignment.h"

namespace ftes {

namespace {

/// Total order on (process, plan) moves, used to break metric ties in the
/// winning-move cache deterministically: the parallel neighborhood
/// evaluation updates the cache in a thread-dependent order, and without a
/// total order the surviving tie entry -- and hence the rebase hit/miss
/// pattern reported by EvalStats -- would vary with the thread count.
bool move_key_less(ProcessId a_pid, const ProcessPlan& a, ProcessId b_pid,
                   const ProcessPlan& b) {
  if (a_pid != b_pid) return a_pid < b_pid;
  if (a.kind != b.kind) return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  if (a.copies.size() != b.copies.size()) {
    return a.copies.size() < b.copies.size();
  }
  for (std::size_t j = 0; j < a.copies.size(); ++j) {
    const CopyPlan& x = a.copies[j];
    const CopyPlan& y = b.copies[j];
    if (x.node != y.node) return x.node < y.node;
    if (x.checkpoints != y.checkpoints) return x.checkpoints < y.checkpoints;
    if (x.recoveries != y.recoveries) return x.recoveries < y.recoveries;
  }
  return false;
}

}  // namespace

EvalContext::EvalContext(const Application& app, const Architecture& arch,
                         FaultModel model)
    : app_(app), arch_(arch), model_(model) {
  model_.validate();
}

std::unique_ptr<EvalContext::Workspace> EvalContext::acquire() {
  {
    std::lock_guard<std::mutex> lock(ws_mutex_);
    if (!idle_ws_.empty()) {
      std::unique_ptr<Workspace> ws = std::move(idle_ws_.back());
      idle_ws_.pop_back();
      return ws;
    }
  }
  return std::make_unique<Workspace>();
}

void EvalContext::put_back(std::unique_ptr<Workspace> ws) {
  std::lock_guard<std::mutex> lock(ws_mutex_);
  idle_ws_.push_back(std::move(ws));
}

template <class Body>
auto EvalContext::with_move(ProcessId pid, const ProcessPlan& plan,
                            const Body& body) {
  std::unique_ptr<Workspace> ws = acquire();
  if (ws->version != version_) {
    ws->assignment = base_;
    ws->version = version_;
  }
  ProcessPlan saved = std::move(ws->assignment.plan(pid));
  ws->assignment.plan(pid) = plan;
  try {
    auto result = body(*ws);
    ws->assignment.plan(pid) = std::move(saved);
    put_back(std::move(ws));
    return result;
  } catch (...) {
    ws->assignment.plan(pid) = std::move(saved);
    put_back(std::move(ws));
    throw;
  }
}

void EvalContext::invalidate_winner_cache() {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  best_cost_ = CacheEntry{};
  best_span_ = CacheEntry{};
}

std::int32_t EvalContext::single_diff_pid(const PolicyAssignment& base,
                                          ProcessId accepted) const {
  if (base.process_count() != base_.process_count()) return -1;
  if (accepted.valid()) {
#ifndef NDEBUG
    // The hint is a promise, not a request: nothing but `accepted` changed.
    for (int i = 0; i < base.process_count(); ++i) {
      assert(i == accepted.get() ||
             base.plan(ProcessId{i}) == base_.plan(ProcessId{i}));
    }
#endif
    return base.plan(accepted) != base_.plan(accepted) ? accepted.get() : -1;
  }
  std::int32_t diff_pid = -1;
  int diffs = 0;
  for (int i = 0; i < base.process_count() && diffs <= 1; ++i) {
    if (base.plan(ProcessId{i}) != base_.plan(ProcessId{i})) {
      diff_pid = i;
      ++diffs;
    }
  }
  return diffs == 1 ? diff_pid : -1;
}

EvalContext::Outcome EvalContext::rebase(const PolicyAssignment& base,
                                         ProcessId accepted) {
  // Winning-move cache: when the new base is the old base with exactly one
  // plan replaced, and that (process, plan) matches a cached candidate,
  // its outcome is the new base's.  Only the fault-free schedule is
  // rebuilt, since the checkpoint log must describe the new base.
  bool hit = false;
  Outcome out;
  if (base_scored_) {
    const std::int32_t diff_pid = single_diff_pid(base, accepted);
    if (diff_pid >= 0) {
      std::lock_guard<std::mutex> lock(cache_mutex_);
      for (const CacheEntry* slot : {&best_cost_, &best_span_}) {
        if (slot->valid && slot->pid.get() == diff_pid &&
            slot->plan == base.plan(ProcessId{diff_pid})) {
          out = slot->outcome;
          hit = true;
          break;
        }
      }
    }
  }
  invalidate_winner_cache();
  list_schedule(app_, arch_, base, base_log_);
  base_has_log_ = true;
  base_ = base;
  ++version_;
  base_scored_ = true;
  rebases_.fetch_add(1, std::memory_order_relaxed);
  if (hit) {
    rebase_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    return out;
  }
  std::unique_ptr<Workspace> ws = acquire();
  out = analyze(*ws, base_, base_log_.schedule);
  put_back(std::move(ws));
  return out;
}

Time EvalContext::rebase_fault_free(const PolicyAssignment& base) {
  invalidate_winner_cache();
  base_scored_ = false;
  list_schedule(app_, arch_, base, base_log_);
  base_has_log_ = true;
  base_ = base;
  ++version_;
  rebases_.fetch_add(1, std::memory_order_relaxed);
  return base_log_.schedule.makespan;
}

void EvalContext::record_resume_stats(const ListScheduleResumeStats& stats) {
  (stats.resumed ? ls_resumes_ : ls_full_builds_)
      .fetch_add(1, std::memory_order_relaxed);
  ls_events_total_.fetch_add(static_cast<long long>(stats.events_total),
                             std::memory_order_relaxed);
  ls_events_resumed_.fetch_add(static_cast<long long>(stats.events_resumed),
                               std::memory_order_relaxed);
  heap_pops_.fetch_add(static_cast<long long>(stats.heap_pops),
                       std::memory_order_relaxed);
}

EvalContext::Outcome EvalContext::analyze(Workspace& ws,
                                          const PolicyAssignment& assignment,
                                          const ListSchedule& sched) const {
  const int k = model_.k;
  build_wcsl_dag(app_, arch_, assignment, k, sched, ws.dag, ws.scratch);
  const WcslDag& dag = ws.dag;
  // Rows keep their storage from candidate to candidate; wcsl_dp_row
  // rewrites each one before any successor reads it.
  ws.L.resize(static_cast<std::size_t>(dag.g.vertex_count()));
  Outcome out;
  for (int v : dag.g.topological_order()) {
    std::vector<Time>& row = ws.L[static_cast<std::size_t>(v)];
    wcsl_dp_row(dag, v, ws.L, k, row);
    out.makespan = std::max(out.makespan, row[static_cast<std::size_t>(k)]);
  }
  ws.process_finish.assign(static_cast<std::size_t>(app_.process_count()), 0);
  for (int p = 0; p < app_.process_count(); ++p) {
    Time& pf = ws.process_finish[static_cast<std::size_t>(p)];
    for (int v = sched.first_copy[static_cast<std::size_t>(p)];
         v < sched.first_copy[static_cast<std::size_t>(p) + 1]; ++v) {
      pf = std::max(pf, ws.L[static_cast<std::size_t>(v)]
                            [static_cast<std::size_t>(k)]);
    }
  }
  out.cost = penalized_cost(app_, ws.process_finish, out.makespan);
  return out;
}

void EvalContext::maybe_cache_winner(ProcessId pid, const ProcessPlan& plan,
                                     const Outcome& outcome) {
  const auto improves = [&](Time metric, Time slot_metric,
                            const CacheEntry& slot) {
    if (!slot.valid) return true;
    if (metric != slot_metric) return metric < slot_metric;
    return move_key_less(pid, plan, slot.pid, slot.plan);
  };
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (improves(outcome.cost, best_cost_.outcome.cost, best_cost_)) {
    best_cost_ = CacheEntry{true, pid, plan, outcome};
  }
  if (improves(outcome.makespan, best_span_.outcome.makespan, best_span_)) {
    best_span_ = CacheEntry{true, pid, plan, outcome};
  }
}

EvalContext::Outcome EvalContext::evaluate_move(ProcessId pid,
                                                const ProcessPlan& plan) {
  if (!base_scored_) {
    throw std::logic_error("EvalContext::evaluate_move without rebase()");
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  incremental_evals_.fetch_add(1, std::memory_order_relaxed);
  const Outcome out = with_move(pid, plan, [&](Workspace& ws) {
    ListScheduleResumeStats rstats;
    ws.sched = list_schedule_resume(app_, arch_, base_, base_log_,
                                    ws.assignment, pid, &rstats);
    record_resume_stats(rstats);
    return analyze(ws, ws.assignment, ws.sched);
  });
  maybe_cache_winner(pid, plan, out);
  return out;
}

Time EvalContext::fault_free_makespan(ProcessId pid, const ProcessPlan& plan) {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::fault_free_makespan without rebase");
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  fault_free_evals_.fetch_add(1, std::memory_order_relaxed);
  return with_move(pid, plan, [&](Workspace& ws) {
    ListScheduleResumeStats rstats;
    const Time makespan =
        list_schedule_resume(app_, arch_, base_, base_log_, ws.assignment,
                             pid, &rstats)
            .makespan;
    record_resume_stats(rstats);
    return makespan;
  });
}

WcslResult EvalContext::evaluate_full(const PolicyAssignment& assignment) {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  full_evals_.fetch_add(1, std::memory_order_relaxed);
  return evaluate_wcsl(app_, arch_, assignment, model_);
}

EvalStats EvalContext::stats() const {
  EvalStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.full_evals = full_evals_.load(std::memory_order_relaxed);
  s.incremental_evals = incremental_evals_.load(std::memory_order_relaxed);
  s.fault_free_evals = fault_free_evals_.load(std::memory_order_relaxed);
  s.rebases = rebases_.load(std::memory_order_relaxed);
  s.ls_full_builds = ls_full_builds_.load(std::memory_order_relaxed);
  s.ls_resumes = ls_resumes_.load(std::memory_order_relaxed);
  s.ls_events_total = ls_events_total_.load(std::memory_order_relaxed);
  s.ls_events_resumed = ls_events_resumed_.load(std::memory_order_relaxed);
  s.heap_pops = heap_pops_.load(std::memory_order_relaxed);
  s.rebase_cache_hits = rebase_cache_hits_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ftes
