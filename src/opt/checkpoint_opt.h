// Checkpoint-count optimization (Section 6 / [15], evaluated in Fig. 8).
//
// The baseline [27] picks each process's checkpoint count in isolation
// (fault/recovery.h's optimal_checkpoints_local).  That is locally optimal
// but globally suboptimal: checkpoints trade per-process overhead chi
// against shared recovery slack, and the trade depends on where the process
// sits in the schedule.  The global optimizer below performs coordinate
// descent on the checkpoint counts against the full WCSL objective; an
// exhaustive exact optimizer over small instances certifies it in tests
// (standing in for an ILP formulation, DESIGN.md Section 5).
#pragma once

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "opt/eval_stats.h"
#include "opt/search_engine.h"
#include "util/cancellation.h"
#include "util/time_types.h"

namespace ftes {

class EvalContext;
class ThreadPool;

/// Sets X of every checkpointed copy to the isolated optimum of [27]
/// (each copy considered alone, tolerating all of its recoveries).
void apply_local_checkpointing(const Application& app,
                               PolicyAssignment& assignment,
                               int max_checkpoints);

struct CheckpointOptResult {
  PolicyAssignment assignment;
  Time wcsl = 0;
  int evaluations = 0;
  EvalStats eval_stats;      ///< evaluator counters spent by this run
  SearchStats search_stats;  ///< engine counters (opt/search_engine.h)
};

struct CheckpointOptOptions {
  int max_checkpoints = 8;
  /// Concurrent WCSL evaluations of a copy's candidate counts (1 = serial;
  /// 0 = all hardware threads).  Candidates are evaluated against the same
  /// incumbent and selected serially in candidate order, so the result is
  /// identical for every thread count.
  int threads = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Shared incremental evaluator; nullptr = a private one.
  EvalContext* eval = nullptr;
  /// Cooperative cancellation: polled per target copy and inside every
  /// parallel candidate evaluation.
  CancellationToken* cancel = nullptr;
};

/// Coordinate descent: repeatedly sweep all checkpointed copies; for each
/// copy the candidate counts X-2 / X-1 / X+1 / X+2 / 1 ("no intermediate
/// checkpoints") are evaluated concurrently against the incumbent and the
/// best strict WCSL improvement (earliest candidate on ties) is kept.
/// Sweeps repeat until one makes no progress, at most eight times.
[[nodiscard]] CheckpointOptResult optimize_checkpoints_global(
    const Application& app, const Architecture& arch, const FaultModel& model,
    PolicyAssignment initial, const CheckpointOptOptions& options);

/// Exhaustive search over all checkpoint-count vectors in
/// [1, max_checkpoints]^(#checkpointed copies).  Exponential; guarded by
/// `max_combinations` (throws std::length_error beyond it).  Test oracle.
[[nodiscard]] CheckpointOptResult optimize_checkpoints_exact(
    const Application& app, const Architecture& arch, const FaultModel& model,
    PolicyAssignment initial, int max_checkpoints,
    std::int64_t max_combinations = 2'000'000);

}  // namespace ftes
