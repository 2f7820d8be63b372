#include "opt/eval_context.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

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

Time EvalContext::penalized_cost(const std::vector<Time>& process_finish,
                                 Time makespan) const {
  Time cost = makespan;
  for (int i = 0; i < app_.process_count(); ++i) {
    const Process& p = app_.process(ProcessId{i});
    if (p.local_deadline) {
      const Time miss =
          process_finish[static_cast<std::size_t>(i)] - *p.local_deadline;
      if (miss > 0) cost += 10 * miss;  // mirror of assignment_cost()
    }
  }
  return cost;
}

void EvalContext::rebuild_base_lookups() {
  base_first_tx_.assign(static_cast<std::size_t>(app_.message_count()) + 1, 0);
  for (int mi = 0; mi < app_.message_count(); ++mi) {
    base_first_tx_[static_cast<std::size_t>(mi) + 1] =
        base_first_tx_[static_cast<std::size_t>(mi)] +
        base_.plan(app_.message(MessageId{mi}).src).copy_count();
  }
  base_msg_vertex_.assign(
      static_cast<std::size_t>(
          base_first_tx_[static_cast<std::size_t>(app_.message_count())]),
      -1);
  for (int m = 0; m < base_dag_.msg_count; ++m) {
    const ScheduledMessage& sm =
        base_sched_.messages[static_cast<std::size_t>(m)];
    base_msg_vertex_[static_cast<std::size_t>(
        base_first_tx_[static_cast<std::size_t>(sm.msg.get())] +
        sm.src_copy)] = base_dag_.msg_vertex(m);
  }
}

EvalContext::Outcome EvalContext::outcome_from_base_rows() const {
  const int k = model_.k;
  Outcome out;
  std::vector<Time> process_finish(
      static_cast<std::size_t>(app_.process_count()), 0);
  for (int v = 0; v < base_dag_.g.vertex_count(); ++v) {
    const Time worst =
        base_L_[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    out.makespan = std::max(out.makespan, worst);
    if (v < base_dag_.copy_count) {
      Time& pf = process_finish[static_cast<std::size_t>(
          base_sched_.copies[static_cast<std::size_t>(v)].ref.process.get())];
      pf = std::max(pf, worst);
    }
  }
  out.cost = penalized_cost(process_finish, out.makespan);
  return out;
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

void EvalContext::anchor_grand_base(const PolicyAssignment& base,
                                    const ScheduleCheckpointLog& log) {
  grand_base_ = base;
  grand_log_ = log;  // the copy shares snapshot refs -- O(E) indices, 0
                     // snapshot bytes
  pending_.clear();
  grand_valid_ = true;
}

void EvalContext::rebuild_base_schedule(const PolicyAssignment& base,
                                        ProcessId accepted) {
  // Accepted-move fast path: a new base differing from the old in exactly
  // one plan replays the whole pending batch of accepted moves from the
  // grand-base log's nearest safe snapshot while recording the new base's
  // log (record-while-resuming) -- the resulting schedule AND log are
  // bit-identical to a from-scratch build, and the log's prefix snapshots
  // are shared with the grand anchor's by reference.
  std::int32_t diff_pid =
      base_has_log_ ? single_diff_pid(base, accepted) : -1;
  // A resume-recorded log inherits the old base's snapshot interval; take
  // the fast path only when that equals the interval a default from-scratch
  // rebuild would pick for the new base (the common case -- single-plan
  // moves rarely shift round(sqrt(E))), so the produced log -- and with it
  // every later resume decision and counter -- is bit-identical to the
  // rebuild it replaces.
  if (diff_pid >= 0 &&
      default_snapshot_interval(app_, base) != base_log_.snapshot_interval) {
    rebase_interval_mismatch_.fetch_add(1, std::memory_order_relaxed);
    diff_pid = -1;
  }
  if (diff_pid >= 0) {
    // Extend the batched run, or open a fresh one anchored at the still-
    // current base when none exists or the window is full (unbounded runs
    // would push the shared resume point toward event 0).
    if (!grand_valid_ || pending_.size() >= kRebaseBatchWindow) {
      anchor_grand_base(base_, base_log_);
    }
    pending_.push_back(ProcessId{diff_pid});
    ScheduleCheckpointLog new_log;
    ListScheduleResumeStats rstats;
    ListSchedule sched =
        list_schedule_resume(app_, arch_, grand_base_, grand_log_, base,
                             pending_, &rstats, &new_log);
    base_sched_ = std::move(sched);
    base_log_ = std::move(new_log);
    if (pending_.size() > 1) {
      rebase_batched_.fetch_add(1, std::memory_order_relaxed);
    }
    snapshot_refs_shared_.fetch_add(
        static_cast<long long>(rstats.snapshots_shared),
        std::memory_order_relaxed);
    snapshot_bytes_copied_.fetch_add(
        static_cast<long long>(rstats.snapshot_bytes_copied),
        std::memory_order_relaxed);
    snapshot_bytes_shared_.fetch_add(
        static_cast<long long>(rstats.snapshot_bytes_shared),
        std::memory_order_relaxed);
    if (rstats.resumed) {
      rebase_log_recorded_.fetch_add(1, std::memory_order_relaxed);
      rebase_log_events_resumed_.fetch_add(
          static_cast<long long>(rstats.events_resumed),
          std::memory_order_relaxed);
      rebase_log_events_replayed_.fetch_add(
          static_cast<long long>(rstats.events_replayed),
          std::memory_order_relaxed);
    } else {
      // No snapshot preceded the batch's first affected event: the
      // recording run degenerated to a (still log-producing) full build.
      // Re-anchor so the next acceptance starts a fresh window instead of
      // shrinking this one's resume point further.
      rebase_full_builds_.fetch_add(1, std::memory_order_relaxed);
      anchor_grand_base(base, base_log_);
    }
  } else {
    base_sched_ = list_schedule(app_, arch_, base, base_log_);
    rebase_full_builds_.fetch_add(1, std::memory_order_relaxed);
    anchor_grand_base(base, base_log_);
  }
  base_has_log_ = true;
}

EvalContext::Outcome EvalContext::rebase(const PolicyAssignment& base,
                                         ProcessId accepted) {
  const int k = model_.k;

  // Winning-move cache: when the new base is the old base with exactly one
  // plan replaced, and that (process, plan) matches a cached candidate,
  // adopt the candidate's DAG + DP rows wholesale.  Only the fault-free
  // schedule remains -- rebuilt by record-while-resuming from the grand
  // log (its checkpoint log must describe the new base) -- so the accept
  // step pays neither the DP nor a from-scratch schedule build.
  if (base_has_dp_) {
    const std::int32_t diff_pid = single_diff_pid(base, accepted);
    if (diff_pid >= 0) {
      Outcome out;
      bool hit = false;
      {
        std::lock_guard<std::mutex> lock(cache_mutex_);
        for (CacheEntry* slot : {&best_cost_, &best_span_}) {
          if (slot->valid && slot->pid.get() == diff_pid &&
              slot->plan == base.plan(ProcessId{diff_pid})) {
            // Both slots may share these artifacts; both are invalidated
            // below, before the lock is released, so moving out is safe.
            base_dag_ = std::move(slot->artifacts->dag);
            base_L_ = std::move(slot->artifacts->L);
            out = slot->outcome;
            best_cost_ = CacheEntry{};
            best_span_ = CacheEntry{};
            hit = true;
            break;
          }
        }
      }
      if (hit) {
        rebuild_base_schedule(base, accepted);  // resumes from the grand log
        base_ = base;
        ++version_;
        rebuild_base_lookups();
        base_has_dp_ = true;
        rebases_.fetch_add(1, std::memory_order_relaxed);
        rebase_cache_hits_.fetch_add(1, std::memory_order_relaxed);
        return out;
      }
    }
  }

  invalidate_winner_cache();
  rebuild_base_schedule(base, accepted);  // resumes from the grand log
  base_ = base;
  ++version_;
  base_dag_ = build_wcsl_dag(app_, arch_, base_, k, base_sched_);
  base_L_.resize(static_cast<std::size_t>(base_dag_.g.vertex_count()));
  for (int v : base_dag_.g.topological_order()) {
    wcsl_dp_row(base_dag_, v, base_L_, k, base_L_[static_cast<std::size_t>(v)]);
  }
  rebuild_base_lookups();
  base_has_dp_ = true;
  rebases_.fetch_add(1, std::memory_order_relaxed);
  return outcome_from_base_rows();
}

Time EvalContext::rebase_fault_free(const PolicyAssignment& base,
                                    ProcessId accepted) {
  invalidate_winner_cache();
  base_has_dp_ = false;
  rebuild_base_schedule(base, accepted);
  base_ = base;
  ++version_;
  rebases_.fetch_add(1, std::memory_order_relaxed);
  return base_sched_.makespan;
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

EvalContext::Outcome EvalContext::incremental_outcome(Workspace& ws,
                                                      ProcessId pid) {
  const int k = model_.k;
  ListScheduleResumeStats rstats;
  ws.sched = list_schedule_resume(app_, arch_, base_, base_log_,
                                  ws.assignment, pid, &rstats);
  record_resume_stats(rstats);
  ws.dag = build_wcsl_dag(app_, arch_, ws.assignment, k, ws.sched);
  const ListSchedule& sched = ws.sched;
  const WcslDag& dag = ws.dag;
  const int total = dag.g.vertex_count();

  // Map candidate vertices onto base vertices by identity key: copies by
  // (process, copy) -- prefix arithmetic on both sides -- transmissions by
  // (message, source copy).  A remap or policy move may create or drop
  // vertices; unmapped ones are dirty.
  ws.to_base.assign(static_cast<std::size_t>(total), -1);
  for (int i = 0; i < dag.copy_count; ++i) {
    const ScheduledCopy& sc = sched.copies[static_cast<std::size_t>(i)];
    if (sc.ref.copy < base_.plan(sc.ref.process).copy_count()) {
      ws.to_base[static_cast<std::size_t>(i)] =
          base_sched_.first_copy[static_cast<std::size_t>(
              sc.ref.process.get())] +
          sc.ref.copy;
    }
  }
  for (int m = 0; m < dag.msg_count; ++m) {
    const ScheduledMessage& sm = sched.messages[static_cast<std::size_t>(m)];
    const std::int32_t mi = sm.msg.get();
    if (sm.src_copy <
        base_.plan(app_.message(sm.msg).src).copy_count()) {
      ws.to_base[static_cast<std::size_t>(dag.msg_vertex(m))] =
          base_msg_vertex_[static_cast<std::size_t>(
              base_first_tx_[static_cast<std::size_t>(mi)] + sm.src_copy)];
    }
  }

  // Rows keep their storage across evaluations: every row is rewritten
  // below (copied from the base or recomputed) before anything reads it.
  ws.L.resize(static_cast<std::size_t>(total));
  ws.clean.assign(static_cast<std::size_t>(total), 0);
  long long reused = 0;
  for (int v : dag.g.topological_order()) {
    const int u = ws.to_base[static_cast<std::size_t>(v)];
    bool reusable =
        u >= 0 &&
        dag.release[static_cast<std::size_t>(v)] ==
            base_dag_.release[static_cast<std::size_t>(u)] &&
        std::equal(dag.weights(v), dag.weights(v) + dag.width,
                   base_dag_.weights(u));
    if (reusable) {
      // Same predecessor multiset, all clean: compare the mapped ids,
      // sorted, against the base's sorted predecessor slice.
      const WcslGraph::Range preds = dag.g.predecessors(v);
      const WcslGraph::Range base_preds = base_dag_.g.predecessors(u);
      reusable = preds.size() == base_preds.size();
      if (reusable) {
        ws.mapped_preds.clear();
        for (int p : preds) {
          const int bp = ws.to_base[static_cast<std::size_t>(p)];
          if (bp < 0 || !ws.clean[static_cast<std::size_t>(p)]) {
            reusable = false;
            break;
          }
          ws.mapped_preds.push_back(bp);
        }
        if (reusable) {
          std::sort(ws.mapped_preds.begin(), ws.mapped_preds.end());
          reusable = std::equal(ws.mapped_preds.begin(),
                                ws.mapped_preds.end(), base_preds.begin());
        }
      }
    }
    if (reusable) {
      ws.L[static_cast<std::size_t>(v)] = base_L_[static_cast<std::size_t>(u)];
      ws.clean[static_cast<std::size_t>(v)] = 1;
      ++reused;
    } else {
      wcsl_dp_row(dag, v, ws.L, k, ws.L[static_cast<std::size_t>(v)]);
    }
  }

  Outcome out;
  ws.process_finish.assign(static_cast<std::size_t>(app_.process_count()), 0);
  for (int v = 0; v < total; ++v) {
    const Time worst =
        ws.L[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    out.makespan = std::max(out.makespan, worst);
    if (v < dag.copy_count) {
      Time& pf = ws.process_finish[static_cast<std::size_t>(
          sched.copies[static_cast<std::size_t>(v)].ref.process.get())];
      pf = std::max(pf, worst);
    }
  }
  out.cost = penalized_cost(ws.process_finish, out.makespan);

  dp_vertices_total_.fetch_add(total, std::memory_order_relaxed);
  dp_vertices_reused_.fetch_add(reused, std::memory_order_relaxed);
  return out;
}

void EvalContext::maybe_cache_winner(Workspace& ws, ProcessId pid,
                                     const Outcome& outcome) {
  const ProcessPlan& plan = ws.assignment.plan(pid);
  const auto improves = [&](Time metric, Time slot_metric,
                            const CacheEntry& slot) {
    if (!slot.valid) return true;
    if (metric != slot_metric) return metric < slot_metric;
    return move_key_less(pid, plan, slot.pid, slot.plan);
  };
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const bool cost_improves =
      improves(outcome.cost, best_cost_.outcome.cost, best_cost_);
  const bool span_improves =
      improves(outcome.makespan, best_span_.outcome.makespan, best_span_);
  if (!cost_improves && !span_improves) return;
  // The workspace artifacts are dead after this evaluation (the next move
  // rebuilds them), so stealing them keeps the critical section O(1).
  auto artifacts = std::make_shared<CachedArtifacts>();
  artifacts->dag = std::move(ws.dag);
  artifacts->L = std::move(ws.L);
  const auto store = [&](CacheEntry& slot) {
    slot.valid = true;
    slot.pid = pid;
    slot.plan = plan;
    slot.outcome = outcome;
    slot.artifacts = artifacts;
  };
  if (cost_improves) store(best_cost_);
  if (span_improves) store(best_span_);
}

EvalContext::Outcome EvalContext::evaluate_move(ProcessId pid,
                                                const ProcessPlan& plan) {
  if (!base_has_dp_) {
    throw std::logic_error("EvalContext::evaluate_move without rebase()");
  }
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  incremental_evals_.fetch_add(1, std::memory_order_relaxed);
  return with_move(pid, plan, [&](Workspace& ws) {
    const Outcome out = incremental_outcome(ws, pid);
    maybe_cache_winner(ws, pid, out);
    return out;
  });
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
  if (base_has_dp_ && assignment.process_count() == base_.process_count()) {
    bool same = true;
    for (int i = 0; i < assignment.process_count() && same; ++i) {
      same = assignment.plan(ProcessId{i}) == base_.plan(ProcessId{i});
    }
    if (same) {
      // The final analysis of an optimizer's accepted base: every DP row is
      // already cached, so only the result extraction remains.
      const int total = base_dag_.g.vertex_count();
      dp_vertices_total_.fetch_add(total, std::memory_order_relaxed);
      dp_vertices_reused_.fetch_add(total, std::memory_order_relaxed);
      return wcsl_result_from_rows(app_, base_sched_, base_dag_, base_L_,
                                   model_.k);
    }
  }
  return evaluate_wcsl(app_, arch_, assignment, model_);
}

EvalStats EvalContext::stats() const {
  EvalStats s;
  s.evaluations = evaluations_.load(std::memory_order_relaxed);
  s.full_evals = full_evals_.load(std::memory_order_relaxed);
  s.incremental_evals = incremental_evals_.load(std::memory_order_relaxed);
  s.fault_free_evals = fault_free_evals_.load(std::memory_order_relaxed);
  s.rebases = rebases_.load(std::memory_order_relaxed);
  s.dp_vertices_total = dp_vertices_total_.load(std::memory_order_relaxed);
  s.dp_vertices_reused = dp_vertices_reused_.load(std::memory_order_relaxed);
  s.ls_full_builds = ls_full_builds_.load(std::memory_order_relaxed);
  s.ls_resumes = ls_resumes_.load(std::memory_order_relaxed);
  s.ls_events_total = ls_events_total_.load(std::memory_order_relaxed);
  s.ls_events_resumed = ls_events_resumed_.load(std::memory_order_relaxed);
  s.heap_pops = heap_pops_.load(std::memory_order_relaxed);
  s.rebase_cache_hits = rebase_cache_hits_.load(std::memory_order_relaxed);
  s.rebase_log_recorded =
      rebase_log_recorded_.load(std::memory_order_relaxed);
  s.rebase_log_events_resumed =
      rebase_log_events_resumed_.load(std::memory_order_relaxed);
  s.rebase_log_events_replayed =
      rebase_log_events_replayed_.load(std::memory_order_relaxed);
  s.rebase_full_builds = rebase_full_builds_.load(std::memory_order_relaxed);
  s.rebase_batched = rebase_batched_.load(std::memory_order_relaxed);
  s.rebase_interval_mismatch =
      rebase_interval_mismatch_.load(std::memory_order_relaxed);
  s.snapshot_refs_shared =
      snapshot_refs_shared_.load(std::memory_order_relaxed);
  s.snapshot_bytes_copied =
      snapshot_bytes_copied_.load(std::memory_order_relaxed);
  s.snapshot_bytes_shared =
      snapshot_bytes_shared_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ftes
