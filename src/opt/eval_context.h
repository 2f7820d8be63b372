// Shared incremental evaluation context of the design-space exploration.
//
// The tabu optimizers and the checkpoint refinement evaluate tens of
// thousands of candidates per run, each differing from an incumbent
// assignment in a single process plan.  Evaluating a candidate from
// scratch pays twice over: a full PolicyAssignment copy per candidate and
// a full fault-free list schedule rebuild.  EvalContext removes both, and
// scores each candidate with an allocation-free WCSL pass over the events
// its schedule replayed:
//
//   * Moves are expressed as (process, new ProcessPlan) against a cached
//     *base* assignment.  Per-thread workspaces materialize a candidate by
//     swapping the one plan in and out, so no full assignment is copied
//     per candidate.
//   * The base's list schedule is built once with a ScheduleCheckpointLog
//     (sched/list_scheduler.h); a candidate's schedule restores the base's
//     scheduler state before the first placement the move can affect and
//     replays only the events from there.
//   * The WCSL DAG and its DP rows are indexed by commit index
//     (sched/wcsl.h), so every event before the resume point `limit` has
//     exactly the base's slice, weight and row: predecessors commit before
//     their successors, and the moved process's copies, its sends and any
//     producer whose message to it flips between local and bus all commit
//     at or after `limit` (the bound list_schedule_resume proves).  A
//     candidate builds only the slices and weights of events limit..V-1
//     into its workspace and computes only their DP rows (wcsl_dp_from),
//     reading earlier rows from the base's flat row array; the makespan
//     joins the suffix's maximum with the base's prefix maximum before
//     `limit`.  A warm workspace allocates nothing on this side.
//   * A rebase() records the new base's log with one from-scratch
//     list-schedule build, then the same analysis from event 0: the base's
//     DAG, rows, prefix maxima of row[k] and outcome, which evaluate_base()
//     returns.  It returns the fault-free makespan -- all the mapping
//     search needs, and all an accepted move needs, since the search
//     engine already holds the winner's evaluated objective.  The new base
//     is built aside, so a rebase that throws leaves the previous one in
//     place.
//
// Results are bit-identical to a from-scratch evaluation: the resumed list
// schedule is exact by construction (property-tested against full
// rebuilds), and so is the analysis over its suffix.  EvalStats reports
// the reuse rate of both layers (placement events and DP rows restored
// from the base).
//
// Shadow verification (`verify_every` N > 0) checks that claim in real
// runs: the N-th, 2N-th, ... move evaluation, by evaluation index, is
// recomputed from scratch (list_schedule + worst_case_schedule_length +
// penalized_cost).  A differing makespan or cost counts a
// verify_mismatches and, in builds with assertions, throws
// std::logic_error.  Sampling by index keeps the counters thread-invariant.
//
// Thread safety: evaluate_move / fault_free_makespan may run concurrently
// (the parallel neighborhood evaluation relies on this); rebase /
// evaluate_base must not race with in-flight evaluations.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "opt/eval_stats.h"
#include "sched/list_scheduler.h"
#include "sched/wcsl.h"

namespace ftes {

class EvalContext {
 public:
  /// The referenced application/architecture must outlive the context.
  /// `verify_every` > 0 shadow-verifies every such move evaluation (see
  /// above); 0 turns verification off.
  EvalContext(const Application& app, const Architecture& arch,
              FaultModel model, int verify_every = 0);

  struct Outcome {
    Time makespan = 0;  ///< analytic WCSL makespan
    Time cost = 0;      ///< makespan + soft local-deadline penalties
  };

  /// Caches `base`, records its checkpoint log with one full list schedule
  /// and its analysis from event 0; returns the base's fault-free
  /// makespan.  Invalidates workspaces lazily.  On a throw the previous
  /// base stays.  The ProcessId is ignored: it stays only because the
  /// benchmark driver (perfbench/src/driver.cpp) calls
  /// rebase(candidate, pid).
  Time rebase(const PolicyAssignment& base, ProcessId = {});

  /// WCSL outcome of the base itself, as recorded by rebase().  Counts
  /// nothing (a start's objective is not a search evaluation).  Throws
  /// std::logic_error without a prior rebase().
  [[nodiscard]] Outcome evaluate_base();

  /// WCSL outcome of base-with-plan(pid)-replaced-by-plan: its schedule
  /// resumed from the base's log, then the analysis from the resume point.
  /// Requires a prior rebase().
  [[nodiscard]] Outcome evaluate_move(ProcessId pid, const ProcessPlan& plan);

  /// Fault-free list-schedule makespan of the same move (the mapping
  /// optimizer's objective).  Requires a prior rebase().
  [[nodiscard]] Time fault_free_makespan(ProcessId pid,
                                         const ProcessPlan& plan);

  /// From-scratch evaluation of an arbitrary assignment (stats-counted).
  [[nodiscard]] WcslResult evaluate_full(const PolicyAssignment& assignment);

  [[nodiscard]] const PolicyAssignment& base() const { return base_; }
  [[nodiscard]] const FaultModel& model() const { return model_; }

  /// Snapshot of the (atomic) counters; safe to call concurrently.
  [[nodiscard]] EvalStats stats() const;

 private:
  /// One analyzed schedule: its WCSL DAG and DP rows, indexed by event
  /// (row e is L[e * (k + 1) ..], see wcsl_dp_from).
  struct Analysis {
    WcslDag dag;
    std::vector<Time> L;
  };

  struct Workspace {
    PolicyAssignment assignment;
    std::uint64_t version = 0;
    ListSchedule sched;
    Analysis analysis;
    WcslDagScratch scratch;
    std::vector<Time> process_finish;
  };

  /// A recorded base: its checkpoint log, its analysis from event 0, the
  /// prefix maxima of its rows' L(e, k) (prefix_max[e] = the maximum over
  /// events before e) and its outcome.
  struct Base {
    ScheduleCheckpointLog log;
    Analysis analysis;
    std::vector<Time> prefix_max;
    Outcome outcome;
  };

  [[nodiscard]] std::unique_ptr<Workspace> acquire();
  void put_back(std::unique_ptr<Workspace> ws);

  /// Applies plan to the workspace's base copy, runs `body(ws)`, restores.
  template <class Body>
  auto with_move(ProcessId pid, const ProcessPlan& plan, const Body& body);

  /// The WCSL pass over events first..V-1 of `sched`, a list schedule of
  /// `assignment` that shares its events before `first` with the recorded
  /// base (first = 0: none): their DAG slices and DP rows into `out`,
  /// earlier rows read from the base, then makespan and cost.
  [[nodiscard]] Outcome analyze(Analysis& out, WcslDagScratch& scratch,
                                std::vector<Time>& process_finish,
                                const PolicyAssignment& assignment,
                                const ListSchedule& sched, int first) const;
  void record_resume_stats(const ListScheduleResumeStats& stats);
  /// Compares `out` with a from-scratch evaluation of `candidate`.
  void verify(const PolicyAssignment& candidate, const Outcome& out);
  /// Relaxed add to the live counter `Counter` (a kEvalCounters entry);
  /// returns its value before the add.
  template <long long EvalStats::*Counter>
  long long count(long long n = 1) {
    constexpr std::size_t slot = eval_counter_slot(Counter);
    static_assert(slot < kEvalCounters.size(), "not a live EvalStats counter");
    return counters_[slot].fetch_add(n, std::memory_order_relaxed);
  }

  const Application& app_;
  const Architecture& arch_;
  FaultModel model_;
  int verify_every_ = 0;

  // Cached base: assignment and its recorded log and analysis.  rebase()
  // builds the next base in spare_ and swaps it in once it is complete.
  PolicyAssignment base_;
  std::uint64_t version_ = 0;
  bool base_has_log_ = false;  ///< set by the first rebase()
  std::unique_ptr<Base> recorded_ = std::make_unique<Base>();
  std::unique_ptr<Base> spare_ = std::make_unique<Base>();

  std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_ws_;

  /// The live counters, in kEvalCounters order.
  std::array<std::atomic<long long>, kEvalCounters.size()> counters_{};
};

}  // namespace ftes
