// Top-level synthesis API: the paper's problem formulation of Section 6.
//
// Given an application A (Section 4), an architecture N + TDMA bus B
// (Section 2) and the fault bound k (Section 2), find a configuration
//
//     psi = <F, M, S>
//
// with F = <P, Q, R, X> the fault-tolerance policy assignment, M the
// mapping of every copy, and S the set of quasi-static schedule tables,
// such that the k faults are tolerated, transparency is honoured, and the
// deadlines hold.
//
// This facade runs the default synthesis pipeline (core/pipeline.h):
// tabu-search policy assignment + mapping (src/opt), global checkpoint
// refinement (src/opt), and, when the scenario space allows it, conditional
// scheduling into schedule tables (src/sched).  Tooling that needs to run,
// skip, instrument or cancel individual stages should build a Pipeline and
// SynthesisContext directly; the results are bit-identical.
#pragma once

#include <optional>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "opt/checkpoint_opt.h"
#include "opt/policy_assignment.h"
#include "sched/cond_scheduler.h"
#include "sched/wcsl.h"

namespace ftes {

struct SynthesisOptions {
  FaultModel fault_model;
  OptimizeOptions optimize;
  CondScheduleOptions schedule;
  /// Refine checkpoint counts globally after the tabu search.
  bool refine_checkpoints = true;
  /// Generate schedule tables (exponential in k; skip for large designs and
  /// use the WCSL bound only).
  bool build_schedule_tables = true;
  /// Deadline watchdog (core/pipeline.h): wall-clock budget per stage /
  /// for the whole run, in milliseconds.  Negative = unlimited; 0 cancels
  /// at the first cancellation point.  On expiry the run's cancellation
  /// token flips and a well-formed partial result is returned with
  /// `timed_out` set.
  long long stage_budget_ms = -1;
  long long total_budget_ms = -1;
};

struct SynthesisResult {
  PolicyAssignment assignment;        ///< F and M
  WcslResult wcsl;                    ///< analytic worst case
  std::optional<CondScheduleResult> schedule;  ///< S (tables), if built
  bool schedulable = false;           ///< deadlines hold in the worst case
  int evaluations = 0;                ///< objective evaluations spent
  /// The run was cancelled (externally or by the deadline watchdog); the
  /// fields above describe the well-formed partial state at that point.
  bool cancelled = false;
  bool timed_out = false;             ///< the cancellation came from a budget
};

/// End-to-end synthesis.  Throws std::invalid_argument on model errors.
[[nodiscard]] SynthesisResult synthesize(const Application& app,
                                         const Architecture& arch,
                                         const SynthesisOptions& options);

}  // namespace ftes
