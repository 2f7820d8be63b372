// Counters of the incremental evaluation context (opt/eval_context.h),
// kept in a tiny header so optimizer result structs can embed them without
// pulling in the evaluator itself.
//
// `evaluations` counts objective evaluations of any kind; the remaining
// counters break down how they were served.  The list-schedule checkpoint
// log is the cache layer: a resumed event is a copy/transmission placement
// restored from the base schedule instead of replayed, and the WCSL DP row
// of every resumed event is the base's, read instead of recomputed.
//
// A live counter is declared once: its field below and its entry in
// kEvalCounters.  add(), since() and EvalContext's counter array all walk
// that list, so a new counter needs no other edit than its increment site.
#pragma once

#include <array>
#include <cstddef>

namespace ftes {

struct EvalStats {
  long long evaluations = 0;        ///< objective evaluations, any kind
  long long full_evals = 0;         ///< complete list-schedule + DP runs
  long long incremental_evals = 0;  ///< move evals against the cached base
  long long fault_free_evals = 0;   ///< list-schedule-only makespan evals
  long long rebases = 0;            ///< base recomputations

  // List-scheduler incrementality (move evaluations only; every rebase
  // builds its schedule from scratch).
  long long ls_full_builds = 0;     ///< move schedules built from scratch
  long long ls_resumes = 0;         ///< move schedules resumed past event 0
  long long ls_events_total = 0;    ///< placement events move schedules needed
  long long ls_events_resumed = 0;  ///< of those, restored from the base
  /// Queue pops in move schedules: picks from the ready and tx queues
  /// plus future->avail promotions (list_scheduler.h, ReadyEntry).
  long long heap_pops = 0;
  /// WCSL DP rows move evaluations needed (one per event of the move's
  /// schedule), and of those the rows read from the base's analysis (the
  /// events before the resume point).
  long long dp_vertices_total = 0;
  long long dp_vertices_reused = 0;
  /// Shadow-verified move evaluations (OptimizeOptions::verify_every)
  /// whose makespan or cost differed from a from-scratch evaluation.
  long long verify_mismatches = 0;

  /// Always 0 and never counted: the layers they measured (scheduler
  /// snapshots, the winning-move cache) were deleted.  They stay only
  /// because perfbench/src/driver.cpp reads them for its
  /// opt.snapshot_bytes_copied and opt.rebase_cache_hit rows; ROADMAP
  /// item 4 removes them together with those rows.
  long long snapshot_bytes_copied = 0;
  long long rebase_cache_hits = 0;

  /// Fraction of list-schedule placement events restored from the base.
  [[nodiscard]] double ls_resume_fraction() const {
    return ls_events_total > 0
               ? static_cast<double>(ls_events_resumed) /
                     static_cast<double>(ls_events_total)
               : 0.0;
  }

  void add(const EvalStats& other);

  /// Counter deltas since `earlier` (used to attribute a shared context's
  /// work to one optimizer run / pipeline stage).
  [[nodiscard]] EvalStats since(const EvalStats& earlier) const;
};

/// The live counters, each once, in the order of EvalContext's counters.
inline constexpr std::array kEvalCounters{
    &EvalStats::evaluations,       &EvalStats::full_evals,
    &EvalStats::incremental_evals, &EvalStats::fault_free_evals,
    &EvalStats::rebases,           &EvalStats::ls_full_builds,
    &EvalStats::ls_resumes,        &EvalStats::ls_events_total,
    &EvalStats::ls_events_resumed, &EvalStats::heap_pops,
    &EvalStats::dp_vertices_total, &EvalStats::dp_vertices_reused,
    &EvalStats::verify_mismatches};

/// The always-zero fields kept for perfbench (see above).
inline constexpr std::array kPerfbenchOnlyEvalFields{
    &EvalStats::snapshot_bytes_copied, &EvalStats::rebase_cache_hits};

/// Position of `counter` in kEvalCounters; kEvalCounters.size() if absent.
constexpr std::size_t eval_counter_slot(long long EvalStats::*counter) {
  std::size_t slot = 0;
  while (slot < kEvalCounters.size() && kEvalCounters[slot] != counter) ++slot;
  return slot;
}

constexpr bool every_eval_field_listed_once() {
  std::array<long long EvalStats::*,
             kEvalCounters.size() + kPerfbenchOnlyEvalFields.size()>
      listed{};
  std::size_t n = 0;
  for (auto field : kEvalCounters) listed[n++] = field;
  for (auto field : kPerfbenchOnlyEvalFields) listed[n++] = field;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (listed[i] == listed[j]) return false;
    }
  }
  return sizeof(EvalStats) == n * sizeof(long long);
}
static_assert(every_eval_field_listed_once(),
              "each EvalStats field must be in kEvalCounters exactly once, "
              "or be one of the perfbench-only fields");

inline void EvalStats::add(const EvalStats& other) {
  for (auto counter : kEvalCounters) this->*counter += other.*counter;
}

inline EvalStats EvalStats::since(const EvalStats& earlier) const {
  EvalStats d = *this;
  for (auto counter : kEvalCounters) d.*counter -= earlier.*counter;
  return d;
}

}  // namespace ftes
