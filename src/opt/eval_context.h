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
//   * A rebase() records the new base's log with one from-scratch
//     list-schedule build and returns its fault-free makespan -- all the
//     mapping search needs, and all an accepted move needs, since the
//     search engine already holds the winner's evaluated objective.  The
//     WCSL objective of a search's start comes from evaluate_base().
//
// Results are bit-identical to a from-scratch evaluation: the resumed list
// schedule is exact by construction (property-tested against full
// rebuilds), and the analysis on top of it is the full one.  EvalStats
// reports the reuse rate of the schedule layer.
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
  EvalContext(const Application& app, const Architecture& arch,
              FaultModel model);

  struct Outcome {
    Time makespan = 0;  ///< analytic WCSL makespan
    Time cost = 0;      ///< makespan + soft local-deadline penalties
  };

  /// Caches `base` and records its checkpoint log with one full list
  /// schedule; returns the base's fault-free makespan.  Invalidates
  /// workspaces lazily.  The ProcessId is ignored: it stays only because
  /// the benchmark driver (perfbench/src/driver.cpp) calls
  /// rebase(candidate, pid).
  Time rebase(const PolicyAssignment& base, ProcessId = {});

  /// WCSL outcome of the base itself: one full analysis of the recorded
  /// base schedule.  Counts nothing (a start's objective is not a search
  /// evaluation).  Throws std::logic_error without a prior rebase().
  [[nodiscard]] Outcome evaluate_base();

  /// WCSL outcome of base-with-plan(pid)-replaced-by-plan: its schedule
  /// resumed from the base's log, then one full analysis.  Requires a
  /// prior rebase().
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
  struct Workspace {
    PolicyAssignment assignment;
    std::uint64_t version = 0;
    ListSchedule sched;
    WcslDag dag;
    WcslDagScratch scratch;
    std::vector<std::vector<Time>> L;
    std::vector<Time> process_finish;
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
  /// Relaxed add to the live counter `Counter` (a kEvalCounters entry).
  template <long long EvalStats::*Counter>
  void count(long long n = 1) {
    constexpr std::size_t slot = eval_counter_slot(Counter);
    static_assert(slot < kEvalCounters.size(), "not a live EvalStats counter");
    counters_[slot].fetch_add(n, std::memory_order_relaxed);
  }

  const Application& app_;
  const Architecture& arch_;
  FaultModel model_;

  // Cached base: assignment and its checkpoint log (which holds the
  // base's fault-free schedule).
  PolicyAssignment base_;
  std::uint64_t version_ = 0;
  bool base_has_log_ = false;  ///< set by the first rebase()
  ScheduleCheckpointLog base_log_;

  std::mutex ws_mutex_;
  std::vector<std::unique_ptr<Workspace>> idle_ws_;

  /// The live counters, in kEvalCounters order.
  std::array<std::atomic<long long>, kEvalCounters.size()> counters_{};
};

}  // namespace ftes
