// Counters of the incremental evaluation context (opt/eval_context.h),
// kept in a tiny header so optimizer result structs can embed them without
// pulling in the evaluator itself.
//
// `evaluations` counts objective evaluations of any kind; the remaining
// counters break down how they were served.  The list-schedule checkpoint
// log is the cache layer: a resumed event is a copy/transmission placement
// served by a base snapshot instead of replayed.  `rebase_cache_hits`
// counts base recomputations served by the winning candidate's cached
// outcome.
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

  // List-scheduler incrementality (move evaluations only; accepted-move
  // rebases are broken out separately below).
  long long ls_full_builds = 0;     ///< move schedules built from scratch
  long long ls_resumes = 0;         ///< move schedules resumed from a snapshot
  long long ls_events_total = 0;    ///< placement events move schedules needed
  long long ls_events_resumed = 0;  ///< of those, served by snapshot prefixes
  /// Queue pops in move schedules: picks from the ready and tx queues
  /// plus future->avail promotions (list_scheduler.h, ReadyEntry).
  long long heap_pops = 0;
  long long rebase_cache_hits = 0;  ///< rebases served by the move cache

  // Accepted-move rebases: a rebase onto a single-plan diff replays the
  // move from the old base's log while recording the new base's log
  // (record-while-resuming) instead of paying a from-scratch build.
  long long rebase_log_recorded = 0;  ///< rebase logs produced by resume
  /// Of the rebase schedules' placement events, those served by the old
  /// base's snapshot prefix during record-while-resuming.
  long long rebase_log_events_resumed = 0;
  /// Events the record-while-resuming rebases actually executed (the
  /// replayed suffix -- the time cost the snapshot prefix did not avoid).
  long long rebase_log_events_replayed = 0;
  long long rebase_full_builds = 0;  ///< rebase schedules built from scratch
  /// Rebase records that diffed a batch of >1 accepted moves against the
  /// retained grand-base log instead of re-recording one move at a time.
  long long rebase_batched = 0;
  /// Interval-gate misses: accepted-move rebases forced to a full rebuild
  /// because the new base's default snapshot interval no longer matches
  /// the retained log's (the gate that keeps recorded logs bit-identical).
  long long rebase_interval_mismatch = 0;

  // Copy-on-write snapshot storage (util/snapshot_store.h): how rebase
  // record prefixes were produced.
  long long snapshot_refs_shared = 0;  ///< prefix snapshots adopted by ref
  /// Bytes materialized into snapshots (copied prefixes + live suffix
  /// records) across rebase recordings; shared refs contribute zero.
  long long snapshot_bytes_copied = 0;
  /// Bytes of the shared prefix snapshots -- what deep-copying records
  /// would have paid on top of snapshot_bytes_copied (the CI sublinearity
  /// check compares the two growth rates).
  long long snapshot_bytes_shared = 0;

  /// Fraction of list-schedule placement events served by snapshot resumes.
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
    rebase_cache_hits += other.rebase_cache_hits;
    rebase_log_recorded += other.rebase_log_recorded;
    rebase_log_events_resumed += other.rebase_log_events_resumed;
    rebase_log_events_replayed += other.rebase_log_events_replayed;
    rebase_full_builds += other.rebase_full_builds;
    rebase_batched += other.rebase_batched;
    rebase_interval_mismatch += other.rebase_interval_mismatch;
    snapshot_refs_shared += other.snapshot_refs_shared;
    snapshot_bytes_copied += other.snapshot_bytes_copied;
    snapshot_bytes_shared += other.snapshot_bytes_shared;
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
    d.rebase_cache_hits -= earlier.rebase_cache_hits;
    d.rebase_log_recorded -= earlier.rebase_log_recorded;
    d.rebase_log_events_resumed -= earlier.rebase_log_events_resumed;
    d.rebase_log_events_replayed -= earlier.rebase_log_events_replayed;
    d.rebase_full_builds -= earlier.rebase_full_builds;
    d.rebase_batched -= earlier.rebase_batched;
    d.rebase_interval_mismatch -= earlier.rebase_interval_mismatch;
    d.snapshot_refs_shared -= earlier.snapshot_refs_shared;
    d.snapshot_bytes_copied -= earlier.snapshot_bytes_copied;
    d.snapshot_bytes_shared -= earlier.snapshot_bytes_shared;
    return d;
  }
};

}  // namespace ftes
