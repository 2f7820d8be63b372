// Shared incremental evaluation context of the design-space exploration.
//
// The tabu optimizers and the checkpoint refinement evaluate tens of
// thousands of candidates per run, each differing from an incumbent
// assignment in a single process plan.  Evaluating a candidate from
// scratch pays three times over: a full PolicyAssignment copy per
// candidate, a full fault-free list schedule rebuild, and a WCSL DAG built
// and analyzed from scratch.  EvalContext removes all three: a move is
// scored by one allocation-free pass over the events its schedule replays.
//
//   * Moves are expressed as (process, new ProcessPlan) against a cached
//     *base* assignment.  Per-thread workspaces materialize a candidate by
//     swapping the one plan in and out through a spare plan, so neither an
//     assignment nor a plan is allocated per candidate.
//   * The base's list schedule is built once with a ScheduleCheckpointLog
//     (sched/list_scheduler.h); a candidate's schedule derives its static
//     data (durations, dependency counts, ranks) from the log, computing
//     only the moved process's copies, restores the base's scheduler state
//     before the first placement the move can affect and replays only the
//     events from there.  Each workspace keeps a ListScheduler, whose
//     buffers persist, so a warm move evaluation allocates nothing.
//   * The WCSL DP rows are indexed by commit index (sched/wcsl.h), and the
//     scheduler computes each replayed event's row as it commits the
//     event.  Every event before the resume point `limit` has exactly the
//     base's row: predecessors commit before their successors, and the
//     moved process's copies, its sends and any producer whose message to
//     it flips between local and bus all commit at or after `limit` (the
//     bound the resume proves).  So the rows before `limit` are read from
//     the base's, and the makespan joins the largest replayed row with the
//     base's prefix maximum before `limit`.  No WCSL DAG is built.
//   * A rebase() records the new base's log (schedule, readiness events,
//     ties and static data) and its rows with one from-scratch build whose
//     scheduler computes the rows the same way from event 0, then the
//     prefix maxima of row[k] and the outcome, which evaluate_base()
//     returns.  It returns the fault-free makespan -- all the mapping
//     search needs, and all an accepted move needs, since the search engine
//     already holds the winner's evaluated objective.  The new base is
//     built aside, so a rebase that throws leaves the previous one in
//     place.
//
// Results are bit-identical to a from-scratch evaluation: the resumed list
// schedule is exact by construction (property-tested against full
// rebuilds), and so are the rows at commit (tested against the DP over
// build_wcsl_dag).  EvalStats reports the reuse rate of both layers
// (placement events and DP rows restored from the base).
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

  /// Caches `base`, records its checkpoint log and its rows with one full
  /// list schedule; returns the base's fault-free makespan.  Invalidates
  /// workspaces lazily.  On a throw the previous base stays.  The
  /// ProcessId is ignored: it stays only because the benchmark driver
  /// (perfbench/src/driver.cpp) calls rebase(candidate, pid).
  Time rebase(const PolicyAssignment& base, ProcessId = {});

  /// WCSL outcome of the base itself, as recorded by rebase().  Counts
  /// nothing (a start's objective is not a search evaluation).  Throws
  /// std::logic_error without a prior rebase().
  [[nodiscard]] Outcome evaluate_base();

  /// WCSL outcome of base-with-plan(pid)-replaced-by-plan: its schedule
  /// resumed from the base's log, with the rows of the replayed events
  /// computed at commit.  Requires a prior rebase().
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
    Workspace(const Application& app, const Architecture& arch)
        : scheduler(app, arch) {}
    PolicyAssignment assignment;
    ProcessPlan spare;  ///< swapped with the moved process's plan
    std::uint64_t version = 0;
    ListScheduler scheduler;
    std::vector<Time> rows;  ///< the replayed events' rows (ListScheduler)
    std::vector<Time> process_finish;
  };

  /// A recorded base: its checkpoint log, the rows of its events (row e is
  /// rows[e * (k + 1) ..]), their prefix maxima of L(e, k) (prefix_max[e] =
  /// the maximum over events before e) and its outcome.
  struct Base {
    ScheduleCheckpointLog log;
    std::vector<Time> rows;
    std::vector<Time> prefix_max;
    Outcome outcome;
  };

  [[nodiscard]] std::unique_ptr<Workspace> acquire();
  void put_back(std::unique_ptr<Workspace> ws);

  /// Applies plan to the workspace's base copy, runs `body(ws)`, restores.
  template <class Body>
  auto with_move(ProcessId pid, const ProcessPlan& plan, const Body& body);

  /// Makespan and cost of `sched`, whose rows are the recorded base's
  /// before event `limit` and `rows`' from there on; `worst` is the largest
  /// L(e, k) among the latter.  Reads the rows of the copies of the
  /// processes with a local deadline into `process_finish`.
  [[nodiscard]] Outcome score(const ListSchedule& sched,
                              const std::vector<Time>& rows, std::size_t limit,
                              Time worst,
                              std::vector<Time>& process_finish) const;
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

  // Cached base: assignment and its recorded log and rows.  rebase() builds
  // the next base in spare_ and swaps it in once it is complete.
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
