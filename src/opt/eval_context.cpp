#include "opt/eval_context.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "opt/policy_assignment.h"

namespace ftes {

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

Time EvalContext::rebase(const PolicyAssignment& base, ProcessId) {
  list_schedule(app_, arch_, base, base_log_);
  base_has_log_ = true;
  base_ = base;
  ++version_;
  count<&EvalStats::rebases>();
  return base_log_.schedule.makespan;
}

EvalContext::Outcome EvalContext::evaluate_base() {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::evaluate_base without rebase()");
  }
  std::unique_ptr<Workspace> ws = acquire();
  const Outcome out = analyze(*ws, base_, base_log_.schedule);
  put_back(std::move(ws));
  return out;
}

void EvalContext::record_resume_stats(const ListScheduleResumeStats& stats) {
  stats.resumed ? count<&EvalStats::ls_resumes>()
                : count<&EvalStats::ls_full_builds>();
  count<&EvalStats::ls_events_total>(
      static_cast<long long>(stats.events_total));
  count<&EvalStats::ls_events_resumed>(
      static_cast<long long>(stats.events_resumed));
  count<&EvalStats::heap_pops>(static_cast<long long>(stats.heap_pops));
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

EvalContext::Outcome EvalContext::evaluate_move(ProcessId pid,
                                                const ProcessPlan& plan) {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::evaluate_move without rebase()");
  }
  count<&EvalStats::evaluations>();
  count<&EvalStats::incremental_evals>();
  return with_move(pid, plan, [&](Workspace& ws) {
    ListScheduleResumeStats rstats;
    ws.sched = list_schedule_resume(app_, arch_, base_, base_log_,
                                    ws.assignment, pid, &rstats);
    record_resume_stats(rstats);
    return analyze(ws, ws.assignment, ws.sched);
  });
}

Time EvalContext::fault_free_makespan(ProcessId pid, const ProcessPlan& plan) {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::fault_free_makespan without rebase");
  }
  count<&EvalStats::evaluations>();
  count<&EvalStats::fault_free_evals>();
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
  count<&EvalStats::evaluations>();
  count<&EvalStats::full_evals>();
  return evaluate_wcsl(app_, arch_, assignment, model_);
}

EvalStats EvalContext::stats() const {
  EvalStats s;
  for (std::size_t i = 0; i < kEvalCounters.size(); ++i) {
    s.*kEvalCounters[i] = counters_[i].load(std::memory_order_relaxed);
  }
  return s;
}

}  // namespace ftes
