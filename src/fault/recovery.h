// Recovery-time algebra for equidistant checkpointing with rollback
// recovery (DATE'08 Section 3.1, Fig. 1) and the locally optimal checkpoint
// count in the style of Punnekkat et al. [27] as used by Izosimov [15].
//
// A process copy with n >= 1 equidistant checkpoints consists of n execution
// segments of ceil(C/n) ticks; saving a checkpoint costs chi, detecting a
// fault costs alpha, restoring the last checkpoint costs mu.  The paper's
// accounting (which exactly reproduces its Fig. 1c timeline of 120 ms for
// C=60, n=2, chi=5, alpha=10, mu=10, one fault, and the 0/35/70 ms
// re-execution starts of its Fig. 6 schedule table):
//
//   fault-free:  E(n, 0) = C + n*chi
//   f faults:    E(n, f) = E(n, 0) + f*(ceil(C/n) + alpha + mu)
//
// i.e. alpha is charged once per *detected fault* and each fault re-executes
// at most one segment (worst case: the fault lands at the very end of the
// running segment).  Fault-free detection is folded into C, consistent with
// the paper's schedule tables where a successor starts exactly at the
// producer's WCET.
//
// Plain re-execution (Section 3) is the n = 1 special case: the single
// checkpoint at process activation stores the initial inputs (cost chi,
// zero if the inputs are retained anyway) and restoring them costs mu.
//
// Worst-case timeline detail (used by the schedule-table generator): with f
// faults the adversary gains nothing by choosing segments, so we place all
// faults on the first segment; then
//   occurrence of fault j:    occ_j = start + j*seg + (j-1)*(alpha+mu)
//   start of recovery j:      occ_j + alpha + mu
//
// CopyRecovery below applies this algebra to one process copy.  The
// schedulers, analyses and checkers ask it, not these functions, what
// faults do to a copy; only the test oracles derive it on their own.
#pragma once

#include <algorithm>
#include <stdexcept>

#include "fault/policy.h"
#include "util/time_types.h"

namespace ftes {

/// Per-copy timing parameters (all in ticks).
struct RecoveryParams {
  Time wcet = 0;   ///< C: worst-case execution time on the mapped node
  Time alpha = 0;  ///< error-detection overhead per fault
  Time mu = 0;     ///< recovery overhead (checkpoint / input restore)
  Time chi = 0;    ///< checkpoint save overhead
};

/// ceil(C/n): worst-case length of one execution segment.
[[nodiscard]] Time segment_length(Time wcet, int checkpoints);

/// E(n, f) as defined above.  Requires n >= 1, f >= 0.
[[nodiscard]] Time checkpointed_exec_time(const RecoveryParams& p,
                                          int checkpoints, int faults);

/// Execution time of a copy that is *not* checkpointed (a pure replica):
/// C.  A fault kills such a copy outright; there is no recovery.
[[nodiscard]] Time replica_exec_time(const RecoveryParams& p);

/// The fault law of one process copy: R and X of Section 4's
/// F = <P, Q, R, X> on its node's timing.  A checkpointed copy (n >= 1)
/// absorbs up to R faults and dies at fault R + 1; a pure replica (n = 0)
/// runs C and dies at its first fault, whatever R its plan carries.  The
/// copy reveals the conditions F^1..F^last_reveal(f) that the schedule
/// tables branch on.  Offsets count from the copy's start; a replica's
/// run is one segment (n = 1).
struct CopyRecovery {
  RecoveryParams params;
  int checkpoints = 0;  ///< n; 0 = pure replica
  int recoveries = 0;   ///< R as planned; budget() is what the copy runs

  /// The law of `copy` of `proc`: C is its WCET on the copy's node.
  [[nodiscard]] static CopyRecovery of(const Process& proc,
                                       const CopyPlan& copy) {
    return {{proc.wcet_on(copy.node), proc.alpha, proc.mu, proc.chi},
            copy.checkpoints,
            copy.recoveries};
  }

  /// The law of `copy` of `proc` whose fault-free run takes `fault_free`
  /// ticks: the inverse of E(n, 0), C = fault_free - n*chi (C itself for a
  /// replica).  Nothing here checks C; step() and run_time() do.
  [[nodiscard]] static CopyRecovery from_fault_free(const Process& proc,
                                                    const CopyPlan& copy,
                                                    Time fault_free) {
    return {{fault_free - copy.checkpoints * proc.chi, proc.alpha, proc.mu,
             proc.chi},
            copy.checkpoints,
            copy.recoveries};
  }

  /// Recoveries the copy can run: a replica has none.
  [[nodiscard]] int budget() const {
    return checkpoints >= 1 ? recoveries : 0;
  }

  [[nodiscard]] bool survives(int faults) const { return faults <= budget(); }

  /// Start to end under `faults` faults: E(n, f) (C for a replica) up to
  /// completion, or up to the detection of the killing fault.
  [[nodiscard]] Time run_time(int faults) const {
    if (!survives(faults)) return occurrence(budget() + 1) + params.alpha;
    return checkpoints >= 1
               ? checkpointed_exec_time(params, checkpoints, faults)
               : replica_exec_time(params);
  }

  /// The last condition revealed under `faults` faults: a survivor reveals
  /// each fault it took and, while its budget could still be exceeded, the
  /// absence of the next one; a dead copy every fault up to its killer.
  [[nodiscard]] int last_reveal(int faults) const {
    return survives(faults) ? std::min(faults + 1, budget()) : budget() + 1;
  }

  /// Worst-case occurrence of fault j >= 1, all faults on the first
  /// segment, and the start of recovery j.
  [[nodiscard]] Time occurrence(int j) const {
    if (j < 1) throw std::invalid_argument("fault index must be >= 1");
    return j * segment_length(params.wcet, std::max(checkpoints, 1)) +
           (j - 1) * (params.alpha + params.mu);
  }
  [[nodiscard]] Time recovery_start(int j) const {
    return occurrence(j) + params.alpha + params.mu;
  }

  /// What each absorbed fault adds to the run: ceil(C/n) + alpha + mu.
  /// Checkpointed copies only.
  [[nodiscard]] Time step() const {
    return segment_length(params.wcet, checkpoints) + params.alpha + params.mu;
  }
};

/// Locally optimal checkpoint count for tolerating `faults` faults,
/// considering the process in isolation ([27]): minimizes E(n, faults) over
/// n in [1, max_checkpoints].  The continuous optimum is
/// n0 = sqrt(faults*C/chi); the better of floor/ceil is returned.  With
/// chi == 0 checkpoints are free and the cap is returned.
[[nodiscard]] int optimal_checkpoints_local(const RecoveryParams& p,
                                            int faults,
                                            int max_checkpoints = 64);

}  // namespace ftes
