// Shared incremental evaluation context of the design-space exploration.
//
// The tabu optimizers and the checkpoint refinement evaluate tens of
// thousands of candidates per run, each differing from an incumbent
// assignment in a single process plan.  Evaluating a candidate from
// scratch pays twice over: a full PolicyAssignment copy per candidate and
// a full fault-free list schedule rebuild.  EvalContext removes both, and
// scores each candidate with one full, allocation-free WCSL pass:
//
//   * Moves are expressed as (process, new ProcessPlan) against a cached
//     *base* assignment.  Per-thread workspaces materialize a candidate by
//     swapping the one plan in and out, so no full assignment is copied
//     per candidate.
//   * The base's list schedule is built once with a ScheduleCheckpointLog
//     (sched/list_scheduler.h); a candidate's schedule restores the base's
//     scheduler state before the first placement the move can affect and
//     replays only the events from there.
//   * The candidate's augmented DAG is built in commit order into the
//     workspace's storage, and wcsl_dp_row runs over every vertex into the
//     workspace's rows (sched/wcsl.h); a warm workspace allocates nothing
//     on this side.
//   * During a sweep the best candidate's outcome is kept; a rebase()
//     onto exactly that winning move returns it instead of re-running the
//     analysis.  Every rebase records the new base's log with one
//     from-scratch list-schedule build.
//
// Results are bit-identical to a from-scratch evaluation: the resumed list
// schedule is exact by construction (property-tested against full
// rebuilds), and the analysis on top of it is the full one.  EvalStats
// reports the reuse rates of the schedule and rebase layers.
//
// Thread safety: evaluate_move / fault_free_makespan may run concurrently
// (the parallel neighborhood evaluation relies on this); rebase /
// rebase_fault_free must not race with in-flight evaluations.  The
// winning-move cache resolves cost ties by a total order on moves, so its
// content -- and therefore every counter -- is thread-count invariant.
#pragma once

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
  EvalContext(const Application& app, const Architecture& arch,
              FaultModel model);

  struct Outcome {
    Time makespan = 0;  ///< analytic WCSL makespan
    Time cost = 0;      ///< makespan + soft local-deadline penalties
  };

  /// Rebuilds the cached checkpoint log for `base` and returns its
  /// outcome.  When `base` is the previous base with exactly the cached
  /// winning move applied, the candidate's outcome is returned instead of
  /// re-analyzing (counted as a rebase cache hit).  Invalidates workspaces
  /// lazily.  A valid `accepted` asserts that the new base differs from the
  /// old in at most that one plan (the engine's accept step knows its
  /// move), so the winning-move cache lookup skips its O(P) diff scan.
  Outcome rebase(const PolicyAssignment& base, ProcessId accepted = {});

  /// Caches `base` for fault-free (list-schedule makespan) move evaluation
  /// only; builds the base's checkpoint log but no DP.  Returns the base's
  /// own fault-free makespan.
  Time rebase_fault_free(const PolicyAssignment& base);

  /// WCSL outcome of base-with-plan(pid)-replaced-by-plan: its schedule
  /// resumed from the base's log, then one full analysis.  Requires a
  /// prior rebase().
  [[nodiscard]] Outcome evaluate_move(ProcessId pid, const ProcessPlan& plan);

  /// Fault-free list-schedule makespan of the same move (the mapping
  /// optimizer's objective).  Requires any prior rebase.
  [[nodiscard]] Time fault_free_makespan(ProcessId pid,
                                         const ProcessPlan& plan);

  /// From-scratch evaluation of an arbitrary assignment (stats-counted).
  [[nodiscard]] WcslResult evaluate_full(const PolicyAssignment& assignment);

  [[nodiscard]] const PolicyAssignment& base() const { return base_; }
  [[nodiscard]] const FaultModel& model() const { return model_; }

  /// Snapshot of the (atomic) counters; safe to call concurrently.
  [[nodiscard]] EvalStats stats() const;

 private:
  struct Workspace {
    PolicyAssignment assignment;
    std::uint64_t version = 0;
    ListSchedule sched;
    WcslDag dag;
    WcslDagScratch scratch;
    std::vector<std::vector<Time>> L;
    std::vector<Time> process_finish;
  };

  /// Winning-move cache: the best candidate evaluated since the last
  /// rebase, one slot per selection metric (the policy tabu search accepts
  /// by cost, the checkpoint refinement by makespan).  Ties resolve by a
  /// total order on (process, plan) so the cached entry is identical for
  /// every thread count.
  struct CacheEntry {
    bool valid = false;
    ProcessId pid;
    ProcessPlan plan;
    Outcome outcome;
  };

  [[nodiscard]] std::unique_ptr<Workspace> acquire();
  void put_back(std::unique_ptr<Workspace> ws);

  /// Applies plan to the workspace's base copy, runs `body(ws)`, restores.
  template <class Body>
  auto with_move(ProcessId pid, const ProcessPlan& plan, const Body& body);

  /// One full WCSL pass over `sched`, a list schedule of `assignment`, in
  /// `ws`'s storage: the DAG, every DP row, then makespan and cost.
  [[nodiscard]] Outcome analyze(Workspace& ws,
                                const PolicyAssignment& assignment,
                                const ListSchedule& sched) const;
  void record_resume_stats(const ListScheduleResumeStats& stats);
  void maybe_cache_winner(ProcessId pid, const ProcessPlan& plan,
                          const Outcome& outcome);
  void invalidate_winner_cache();
  /// The single plan in which `base` differs from the cached base_, or -1
  /// for none/many.  O(1) when the `accepted` hint is valid (debug-checked
  /// against a full scan), O(P) otherwise.
  [[nodiscard]] std::int32_t single_diff_pid(const PolicyAssignment& base,
                                             ProcessId accepted) const;

  const Application& app_;
  const Architecture& arch_;
  FaultModel model_;

  // Cached base: assignment and its checkpoint log (which holds the
  // base's fault-free schedule).
  PolicyAssignment base_;
  std::uint64_t version_ = 0;
  /// Set by rebase(), cleared by rebase_fault_free(): evaluate_move and
  /// the winning-move cache need a WCSL base.
  bool base_scored_ = false;
  bool base_has_log_ = false;
  ScheduleCheckpointLog base_log_;

  std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_ws_;

  std::mutex cache_mutex_;
  CacheEntry best_cost_;  ///< minimizes (cost, move key)
  CacheEntry best_span_;  ///< minimizes (makespan, move key)

  std::atomic<long long> evaluations_{0};
  std::atomic<long long> full_evals_{0};
  std::atomic<long long> incremental_evals_{0};
  std::atomic<long long> fault_free_evals_{0};
  std::atomic<long long> rebases_{0};
  std::atomic<long long> ls_full_builds_{0};
  std::atomic<long long> ls_resumes_{0};
  std::atomic<long long> ls_events_total_{0};
  std::atomic<long long> ls_events_resumed_{0};
  std::atomic<long long> heap_pops_{0};
  std::atomic<long long> rebase_cache_hits_{0};
};

}  // namespace ftes
