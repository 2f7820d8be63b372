// Worst-case schedule length (WCSL) under at most k transient faults.
//
// Analysis used inside the design-space exploration of Section 6 (the
// optimizers call it tens of thousands of times, so it must be fast).
//
// Model (DESIGN.md Section 4).  Starting from the fault-free list schedule
// we build the *resource-augmented* DAG: data-precedence edges
// (producer copy -> its bus transmissions -> consumer copies) plus resource
// edges chaining consecutive executions on each node and consecutive
// transmissions on the bus.  Delays caused by faults serialize along such
// chains, so the adversarial makespan is the budgeted longest path
//
//     L(v, b) = max_{0 <= f <= b} [ w_v(f) + max(rel_v, max_{p in pred(v)}
//                                                 L(p, b - f)) ]
//     WCSL    = max_v L(v, k)
//
// where w_v(f) for a checkpointed copy is E(n, min(f, R)) -- beyond R
// recoveries the copy is dead and stops delaying its timeline -- a pure
// replica contributes C regardless (a fault kills it; consumers wait for
// the slowest copy, which is already in the DAG via the all-copies join),
// and a bus transmission contributes its worst-case TDMA duration.  Every
// weight is therefore linear up to a cap and flat after it,
//
//     w_v(f) = base + min(f, cap) * step,
//
// and because each row L(p, .) is nondecreasing in b (a larger budget
// only adds options), a fault beyond the cap only adds waiting: f = cap
// dominates it.  With g(j) = max(rel_v, max_p L(p, j)) and
// h(j) = g(j) - j * step, a row is therefore
//
//     L(v, b) = base + g(b)                    if step = 0 or cap = 0
//     L(v, b) = base + b * step + max_{max(0, b - cap) <= j <= b} h(j)
//
// which is O(k) per row for a constant weight or cap >= k (a running max)
// and a window of cap + 1 entries per b for a hybrid copy (0 < cap < k).
// The rows' monotonicity is an induction over the topological order: a
// vertex without predecessors sees g constant.
//
// Conservative choices (both standard in [13,16]): the static order of the
// fault-free schedule is kept (the run-time scheduler can only do better),
// and transmissions pay the full worst-case round wait.
//
// Representation.  A vertex is a commit index: vertex e is the copy or
// transmission the list scheduler committed at event e (ListSchedule's
// `event` stamps; WcslDag::item maps back), so the topological order is
// 0..V-1 and no graph search runs.  build_wcsl_dag lays the DAG out as
// flat arrays (no graph object): predecessors in compressed sparse row
// form, an unordered multiset of events per vertex, and one
// {base, step, cap} weight per vertex.  The DP visits the events in order;
// wcsl_row_law is its one row law.
//
// Rows at commit.  A vertex's predecessors all commit before it, so the
// list scheduler can compute each event's row the moment it commits the
// event, from rows it already holds: a copy's predecessors are its
// process's data predecessors -- one per (input message, producer copy),
// exactly the deliveries the scheduler counts -- and the copy committed
// last on its node; a transmission's are its sending copy and the previous
// transmission on the bus.  ListScheduler (sched/list_scheduler.h) does so,
// and the move evaluator (opt/eval_context.h) scores candidates that way
// without building a DAG.  build_wcsl_dag stays the from-scratch analysis
// of a given schedule, and the oracle the commit-time rows are checked
// against.
//
// Thread safety: every function here is pure -- all inputs are taken by
// const reference, and no global or cached state exists -- so concurrent
// calls on shared Application/Architecture/PolicyAssignment objects are
// safe.  The parallel optimizers (opt/) and the batch runner (batch/) rely
// on this guarantee; keep new code here free of mutable/static state.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <limits>
#include <type_traits>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "sched/list_scheduler.h"

namespace ftes {

struct WcslResult {
  Time makespan = 0;
  /// Worst-case finish per process (max over copies), indexed by ProcessId;
  /// used for local deadline checks.
  std::vector<Time> process_finish;

  /// Per-copy worst-case start/finish, aligned with ListSchedule::copies.
  /// The start is the latest time the copy can be forced to begin by k
  /// adversarial faults; root schedules (sched/root_schedule.h) pin copies
  /// to exactly these times.
  std::vector<Time> copy_worst_start;
  std::vector<Time> copy_worst_finish;
  /// Per-transmission worst-case ready time, aligned with
  /// ListSchedule::messages.
  std::vector<Time> msg_worst_ready;

  [[nodiscard]] bool meets_deadlines(const Application& app) const;
};

/// Predecessor lists of the augmented DAG in compressed sparse row form,
/// vertices being commit indices.  Each vertex's predecessors are an
/// unordered multiset: a data edge and a node-order edge joining the same
/// two copies both appear.  The topological order is 0..V-1.
struct WcslGraph {
  std::vector<int> pred_begin;  ///< vertex_count + 1 offsets into `preds`
  std::vector<int> preds;
  std::vector<int> order;  ///< 0..vertex_count - 1, the commit order

  /// Contiguous predecessor ids of one vertex.
  struct Range {
    const int* first = nullptr;
    const int* last = nullptr;
    [[nodiscard]] const int* begin() const { return first; }
    [[nodiscard]] const int* end() const { return last; }
    [[nodiscard]] std::size_t size() const {
      return static_cast<std::size_t>(last - first);
    }
  };

  [[nodiscard]] int vertex_count() const {
    return static_cast<int>(order.size());
  }
  [[nodiscard]] const std::vector<int>& topological_order() const {
    return order;
  }
  [[nodiscard]] Range predecessors(int v) const {
    const int* base = preds.data();
    return Range{base + pred_begin[static_cast<std::size_t>(v)],
                 base + pred_begin[static_cast<std::size_t>(v) + 1]};
  }
};

/// Execution time of a DAG vertex when f faults strike it:
/// base + min(f, cap) * step.  A checkpointed copy has base E(n, 0),
/// step ceil(C/n) + alpha + mu and cap min(R, k); a replica (base C) and a
/// transmission (base its worst-case TDMA duration) have step 0, cap 0.
struct WcslWeight {
  Time base = 0;
  Time step = 0;
  int cap = 0;
};

/// The weight law under k faults of copy `copy` of `proc` whose fault-free
/// run takes `duration` ticks (its scheduled duration, E(n, 0) or C): the
/// law recovers C from it, and the per-fault step is taken only where some
/// E(n, f >= 1) is needed (cap >= 1), so a non-positive C throws
/// std::invalid_argument exactly where the step is used.
[[nodiscard]] WcslWeight copy_weight(const Process& proc, const CopyPlan& copy,
                                     Time duration, int k);

/// k fixed at compile time, so that wcsl_row_law's O(k) loops unroll.
template <int K>
using FixedK = std::integral_constant<int, K>;

/// Calls `f(k)` with k as a FixedK for the paper's k = 1..7 and as an int
/// otherwise.
template <class F>
decltype(auto) with_fixed_k(int k, F&& f) {
  switch (k) {
    case 1: return f(FixedK<1>{});
    case 2: return f(FixedK<2>{});
    case 3: return f(FixedK<3>{});
    case 4: return f(FixedK<4>{});
    case 5: return f(FixedK<5>{});
    case 6: return f(FixedK<6>{});
    case 7: return f(FixedK<7>{});
    default: return f(k);
  }
}

/// The DP's row law, in place: on entry row[b] (b = 0..k) is the maximum
/// over a vertex's predecessors p of L(p, b) -- all zeros without
/// predecessors -- and so nondecreasing in b, as every row this law writes
/// is; on exit row[b] = L(v, b) for the vertex's weight `w` and release, by
/// the closed forms of the header comment.  `k_arg` is an int or a FixedK.
/// wcsl_dp_row and the list scheduler's rows at commit both apply it.
template <class K>
inline void wcsl_row_law(const WcslWeight& w, Time release, K k_arg,
                         Time* row) {
  const int k = k_arg;
  assert(std::is_sorted(row, row + k + 1));
  if (w.step == 0 || w.cap <= 0) {
    for (int b = 0; b <= k; ++b) row[b] = w.base + std::max(release, row[b]);
  } else if (w.cap >= k) {
    // Running max of h(j) = g(j) - j * step over j <= b, ascending b:
    // row[b] is read just before it is overwritten.
    Time best_h = std::numeric_limits<Time>::lowest();
    for (int b = 0; b <= k; ++b) {
      const Time stepped = static_cast<Time>(b) * w.step;
      best_h = std::max(best_h, std::max(release, row[b]) - stepped);
      row[b] = w.base + stepped + best_h;
    }
  } else {
    // Window b - cap <= j <= b, descending b: row b reads row[j] for j <= b
    // only, so each entry is overwritten after its last read.
    for (int b = k; b >= 0; --b) {
      Time best_h = std::numeric_limits<Time>::lowest();
      for (int j = std::max(0, b - w.cap); j <= b; ++j) {
        best_h = std::max(best_h, std::max(release, row[j]) -
                                      static_cast<Time>(j) * w.step);
      }
      row[b] = w.base + static_cast<Time>(b) * w.step + best_h;
    }
  }
}

/// The resource-augmented schedule DAG of the WCSL analyses below: vertex e
/// is the copy or bus transmission committed at event e; edges are data
/// precedences plus the per-node / bus static orders of the fault-free
/// schedule; weight[e] is e's weight law, w_e(f) for f = 0..k.
struct WcslDag {
  WcslGraph g;
  int copy_count = 0;
  int msg_count = 0;
  /// item[e]: the index into ListSchedule::copies of the copy committed at
  /// event e, or copy_count + m for ListSchedule::messages[m].
  std::vector<int> item;
  std::vector<WcslWeight> weight;
  std::vector<Time> release;

  /// w_v(f): the execution time of v when f faults strike it.
  [[nodiscard]] Time weight_at(int v, int f) const {
    const WcslWeight& w = weight[static_cast<std::size_t>(v)];
    return w.base + static_cast<Time>(std::min(f, w.cap)) * w.step;
  }
};

/// Builds the augmented DAG for one (assignment, schedule) pair.  The
/// schedule must be the assignment's own list schedule, as every caller
/// passes: a copy's weight is read off its scheduled duration through
/// copy_weight.
/// Throws std::invalid_argument when its copy layout (copies.size(),
/// first_copy) differs from the assignment's, when a copy's `ref` is not
/// its (process, copy) place in that layout, when a transmission names a
/// message the application lacks or a source copy its producer lacks, when
/// a node_order entry is not a copy or a bus_order entry not a
/// transmission, when its commit indices are not a permutation of
/// [0, copies + messages), when a predecessor was committed after its
/// successor, or where copy_weight throws.
[[nodiscard]] WcslDag build_wcsl_dag(const Application& app,
                                     const Architecture& arch,
                                     const PolicyAssignment& assignment, int k,
                                     const ListSchedule& schedule);

/// One row of the budgeted longest-path DP: fills `row` with L(v, b) for
/// b = 0..k given the already-computed rows of v's predecessors in `L`
/// (aliasing row == L[v] is fine, v never precedes itself), by
/// wcsl_row_law.  Precondition: those rows are rows wcsl_dp_row wrote (so
/// each is nondecreasing in b), as in a pass over the topological order.
/// Returns the incoming bound max_p L(p, k), i.e. the worst-case start of
/// v before its release is applied.  Allocates nothing when `row` already
/// holds k + 1 entries.
Time wcsl_dp_row(const WcslDag& dag, int v,
                 const std::vector<std::vector<Time>>& L, int k,
                 std::vector<Time>& row);

/// Budgeted longest-path analysis over an existing fault-free schedule.
[[nodiscard]] WcslResult worst_case_schedule_length(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, const FaultModel& model,
    const ListSchedule& schedule);

/// Transparent-recovery analysis: start times that hold in *every* scenario
/// with every copy absorbing all k faults locally (no budget split along
/// paths).  This is the timing law of root schedules
/// (sched/root_schedule.h); it dominates worst_case_schedule_length and the
/// gap is exactly the price of full transparency.
[[nodiscard]] WcslResult worst_case_transparent(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, const FaultModel& model,
    const ListSchedule& schedule);

/// Convenience: list-schedule then analyze.  This is the objective function
/// of every optimizer in src/opt.
[[nodiscard]] WcslResult evaluate_wcsl(const Application& app,
                                       const Architecture& arch,
                                       const PolicyAssignment& assignment,
                                       const FaultModel& model);

}  // namespace ftes
