// Counters of the incremental evaluation context (opt/eval_context.h),
// kept in a tiny header so optimizer result structs can embed them without
// pulling in the evaluator itself.
//
// `evaluations` counts objective evaluations of any kind; the remaining
// counters break down how they were served.  The list-schedule checkpoint
// log is the cache layer: a resumed event is a copy/transmission placement
// restored from the base schedule instead of replayed.
#pragma once

namespace ftes {

struct EvalStats {
  long long evaluations = 0;        ///< objective evaluations, any kind
  long long full_evals = 0;         ///< complete list-schedule + DP runs
  long long incremental_evals = 0;  ///< move evals against the cached base
  long long fault_free_evals = 0;   ///< list-schedule-only makespan evals
  long long rebases = 0;            ///< base recomputations
  /// Always 0: every candidate runs the full DP (EvalContext keeps no DP
  /// rows).  Kept for readers of the historical row-reuse counters.
  long long dp_vertices_total = 0;
  long long dp_vertices_reused = 0;
  /// Always 0: no scheduler state is snapshotted (a checkpoint log is the
  /// base schedule itself).  Kept for readers of the historical
  /// copy-on-write snapshot counter.
  long long snapshot_bytes_copied = 0;

  // List-scheduler incrementality (move evaluations only; every rebase
  // builds its schedule from scratch).
  long long ls_full_builds = 0;     ///< move schedules built from scratch
  long long ls_resumes = 0;         ///< move schedules resumed past event 0
  long long ls_events_total = 0;    ///< placement events move schedules needed
  long long ls_events_resumed = 0;  ///< of those, restored from the base
  /// Queue pops in move schedules: picks from the ready and tx queues
  /// plus future->avail promotions (list_scheduler.h, ReadyEntry).
  long long heap_pops = 0;
  /// Always 0: a rebase only records the base's checkpoint log, and no
  /// candidate outcome is cached.  Kept for readers of the historical
  /// winning-move cache counter.
  long long rebase_cache_hits = 0;

  /// Fraction of list-schedule placement events restored from the base.
  [[nodiscard]] double ls_resume_fraction() const {
    return ls_events_total > 0
               ? static_cast<double>(ls_events_resumed) /
                     static_cast<double>(ls_events_total)
               : 0.0;
  }

  void add(const EvalStats& other) {
    evaluations += other.evaluations;
    full_evals += other.full_evals;
    incremental_evals += other.incremental_evals;
    fault_free_evals += other.fault_free_evals;
    rebases += other.rebases;
    ls_full_builds += other.ls_full_builds;
    ls_resumes += other.ls_resumes;
    ls_events_total += other.ls_events_total;
    ls_events_resumed += other.ls_events_resumed;
    heap_pops += other.heap_pops;
  }

  /// Counter deltas since `earlier` (used to attribute a shared context's
  /// work to one optimizer run / pipeline stage).
  [[nodiscard]] EvalStats since(const EvalStats& earlier) const {
    EvalStats d = *this;
    d.evaluations -= earlier.evaluations;
    d.full_evals -= earlier.full_evals;
    d.incremental_evals -= earlier.incremental_evals;
    d.fault_free_evals -= earlier.fault_free_evals;
    d.rebases -= earlier.rebases;
    d.ls_full_builds -= earlier.ls_full_builds;
    d.ls_resumes -= earlier.ls_resumes;
    d.ls_events_total -= earlier.ls_events_total;
    d.ls_events_resumed -= earlier.ls_events_resumed;
    d.heap_pops -= earlier.heap_pops;
    return d;
  }
};

}  // namespace ftes
