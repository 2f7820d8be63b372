// Mapping + fault-tolerance policy assignment optimization (Section 6,
// consolidating [13] and [15]): decide, per process, whether to use
// checkpointing/re-execution, active replication, or a combination, place
// every copy on a node, and choose checkpoint counts, minimizing the
// worst-case schedule length under k transient faults.
//
// The engine is a tabu search over three move families (remap a copy,
// switch the policy kind, adjust a checkpoint count), seeded by a greedy
// load-balancing construction; the objective is the WCSL analysis of
// sched/wcsl.h plus soft penalties for local-deadline violations.
#pragma once

#include <cstdint>
#include <vector>

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

/// Search space restriction, used to express the paper's comparison
/// baselines (Fig. 7).
enum class PolicySpace {
  kReexecutionOnly,   ///< MX: checkpointing fixed to one checkpoint
  kCheckpointingOnly, ///< checkpointing with optimized checkpoint counts
  kReplicationOnly,   ///< MR: active replication for every process
  kFull,              ///< MXR: checkpointing / replication / hybrid
};

struct OptimizeOptions {
  PolicySpace space = PolicySpace::kFull;
  bool optimize_mapping = true;
  /// Search over checkpoint counts (ignored for kReexecutionOnly /
  /// kReplicationOnly).
  bool optimize_checkpoints = true;
  int iterations = 300;
  int tenure = 8;
  /// Random moves sampled per iteration.
  int neighborhood = 24;
  int max_checkpoints = 8;
  std::uint64_t seed = 1;
  /// Concurrent WCSL evaluations of the sampled neighborhood (1 = serial;
  /// 0 = all hardware threads).  Candidate generation stays serial on the
  /// iteration's RNG, so the result is identical for every thread count.
  int threads = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::shared().
  /// Mainly for tests, which need a multi-worker pool even on single-core
  /// machines (where the shared pool has no workers).
  ThreadPool* pool = nullptr;
  /// Incremental evaluator to run against; nullptr = a private one.  Must
  /// be built on the same application/architecture/fault model.  Sharing
  /// one across stages (core/pipeline.h) reuses its workspaces and
  /// aggregates its statistics (the search rebases it on its own start).
  EvalContext* eval = nullptr;
  /// Shadow verification: every N-th move evaluation is recomputed from
  /// scratch and compared (opt/eval_context.h); 0 = off.  Read where an
  /// evaluator is built: the private one above and the pipeline's shared
  /// one (core/pipeline.h).
  int verify_every = 0;
  /// Cooperative cancellation: polled at every tabu iteration AND inside
  /// every parallel evaluation chunk (so an armed deadline fires within
  /// one candidate evaluation, not one full neighborhood); the search
  /// returns its best-so-far when the token fires.  nullptr = never
  /// cancelled.
  CancellationToken* cancel = nullptr;
};

struct OptimizeResult {
  PolicyAssignment assignment;
  Time wcsl = 0;
  bool schedulable = false;
  int evaluations = 0;
  /// Evaluator counters spent by this run (full vs incremental
  /// evaluations, placements resumed from the base schedule); see
  /// opt/eval_stats.h.
  EvalStats eval_stats;
  /// Engine counters of the tabu search (opt/search_engine.h).
  SearchStats search_stats;
};

/// Greedy initial solution: processes in topological order, copy-0 mapping
/// on the allowed node minimizing (finish-of-load + wcet); policies per
/// `space` (checkpointing plans start from the local-optimal checkpoint
/// count of [27]).
[[nodiscard]] PolicyAssignment greedy_initial(const Application& app,
                                              const Architecture& arch,
                                              const FaultModel& model,
                                              PolicySpace space,
                                              int max_checkpoints);

/// Full tabu-search optimization.
[[nodiscard]] OptimizeResult optimize_policy_and_mapping(
    const Application& app, const Architecture& arch, const FaultModel& model,
    const OptimizeOptions& options);

/// Tabu search from a caller-provided start (used by baselines/ablations).
[[nodiscard]] OptimizeResult optimize_from(const Application& app,
                                           const Architecture& arch,
                                           const FaultModel& model,
                                           const OptimizeOptions& options,
                                           PolicyAssignment initial);

/// Objective: WCSL makespan plus soft local-deadline penalties.
[[nodiscard]] Time assignment_cost(const Application& app,
                                   const Architecture& arch,
                                   const PolicyAssignment& assignment,
                                   const FaultModel& model);

/// The objective of one analysis: `makespan` plus 10 per time unit by
/// which a process's worst-case finish (`process_finish`, indexed by
/// ProcessId) misses its local deadline -- a soft penalty that steers the
/// search back to feasibility.  assignment_cost and EvalContext both score
/// with it.
[[nodiscard]] Time penalized_cost(const Application& app,
                                  const std::vector<Time>& process_finish,
                                  Time makespan);

}  // namespace ftes
