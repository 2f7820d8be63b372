#include "opt/eval_context.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "opt/policy_assignment.h"

namespace ftes {

EvalContext::EvalContext(const Application& app, const Architecture& arch,
                         FaultModel model, int verify_every)
    : app_(app), arch_(arch), model_(model), verify_every_(verify_every) {
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
  return std::make_unique<Workspace>(app_, arch_);
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
  // The move's plan goes in through the spare, whose storage a previous
  // move left: swapping allocates nothing, copy-assigning into a
  // moved-from plan would.
  ws->spare = plan;
  ProcessPlan& slot = ws->assignment.plan(pid);
  std::swap(slot, ws->spare);
  try {
    auto result = body(*ws);
    std::swap(slot, ws->spare);
    put_back(std::move(ws));
    return result;
  } catch (...) {
    std::swap(slot, ws->spare);
    put_back(std::move(ws));
    throw;
  }
}

Time EvalContext::rebase(const PolicyAssignment& base, ProcessId) {
  Base& next = *spare_;
  std::unique_ptr<Workspace> ws = acquire();
  const ListSchedule& sched =
      ws->scheduler.build(base, next.log, {model_.k, &next.rows, nullptr});
  next.outcome = score(sched, next.rows, 0, ws->scheduler.worst_row(),
                       ws->process_finish);
  put_back(std::move(ws));
  const std::size_t width = static_cast<std::size_t>(model_.k) + 1;
  const std::size_t events = sched.copies.size() + sched.messages.size();
  next.prefix_max.resize(events + 1);
  next.prefix_max[0] = 0;
  for (std::size_t e = 0; e < events; ++e) {
    next.prefix_max[e + 1] =
        std::max(next.prefix_max[e], next.rows[e * width + width - 1]);
  }
  base_ = base;
  std::swap(recorded_, spare_);
  base_has_log_ = true;
  ++version_;
  count<&EvalStats::rebases>();
  return recorded_->log.schedule.makespan;
}

EvalContext::Outcome EvalContext::evaluate_base() {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::evaluate_base without rebase()");
  }
  return recorded_->outcome;
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

EvalContext::Outcome EvalContext::score(
    const ListSchedule& sched, const std::vector<Time>& rows,
    std::size_t limit, Time worst, std::vector<Time>& process_finish) const {
  const std::size_t width = static_cast<std::size_t>(model_.k) + 1;
  const std::vector<Time>& base = recorded_->rows;
  Outcome result;
  result.makespan =
      std::max(limit > 0 ? recorded_->prefix_max[limit] : 0, worst);
  // Worst-case finishes of the processes penalized_cost reads: those with
  // a local deadline.
  process_finish.assign(static_cast<std::size_t>(app_.process_count()), 0);
  for (int p = 0; p < app_.process_count(); ++p) {
    if (!app_.process(ProcessId{p}).local_deadline) continue;
    Time& pf = process_finish[static_cast<std::size_t>(p)];
    for (int c = sched.first_copy[static_cast<std::size_t>(p)];
         c < sched.first_copy[static_cast<std::size_t>(p) + 1]; ++c) {
      const std::size_t e =
          static_cast<std::size_t>(sched.copies[static_cast<std::size_t>(c)]
                                       .event);
      pf = std::max(pf, (e < limit ? base : rows)[e * width + width - 1]);
    }
  }
  result.cost = penalized_cost(app_, process_finish, result.makespan);
  return result;
}

EvalContext::Outcome EvalContext::evaluate_move(ProcessId pid,
                                                const ProcessPlan& plan) {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::evaluate_move without rebase()");
  }
  count<&EvalStats::evaluations>();
  const long long index = count<&EvalStats::incremental_evals>();
  return with_move(pid, plan, [&](Workspace& ws) {
    const ListScheduler::Rows rows{model_.k, &ws.rows, &recorded_->rows};
    const ListScheduleResumeStats rstats = ws.scheduler.resume(
        base_, recorded_->log, ws.assignment, pid, &rows);
    record_resume_stats(rstats);
    // One DP row per event: the replayed ones computed at commit, the
    // resumed ones the base's.
    count<&EvalStats::dp_vertices_total>(
        static_cast<long long>(rstats.events_total));
    count<&EvalStats::dp_vertices_reused>(
        static_cast<long long>(rstats.events_resumed));
    const Outcome out =
        score(ws.scheduler.schedule(), ws.rows, rstats.events_resumed,
              ws.scheduler.worst_row(), ws.process_finish);
    if (verify_every_ > 0 && (index + 1) % verify_every_ == 0) {
      verify(ws.assignment, out);
    }
    return out;
  });
}

void EvalContext::verify(const PolicyAssignment& candidate,
                         const Outcome& out) {
  const WcslResult full = worst_case_schedule_length(
      app_, arch_, candidate, model_, list_schedule(app_, arch_, candidate));
  if (full.makespan == out.makespan &&
      penalized_cost(app_, full.process_finish, full.makespan) == out.cost) {
    return;
  }
  count<&EvalStats::verify_mismatches>();
#ifndef NDEBUG
  throw std::logic_error(
      "EvalContext: a move evaluation differs from its from-scratch "
      "evaluation");
#endif
}

Time EvalContext::fault_free_makespan(ProcessId pid, const ProcessPlan& plan) {
  if (!base_has_log_) {
    throw std::logic_error("EvalContext::fault_free_makespan without rebase");
  }
  count<&EvalStats::evaluations>();
  count<&EvalStats::fault_free_evals>();
  return with_move(pid, plan, [&](Workspace& ws) {
    record_resume_stats(
        ws.scheduler.resume(base_, recorded_->log, ws.assignment, pid));
    return ws.scheduler.schedule().makespan;
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
