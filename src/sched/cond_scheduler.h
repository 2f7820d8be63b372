// Conditional scheduling of fault-tolerant applications into quasi-static
// schedule tables (DATE'08 Section 5).
//
// The generator walks the full fault-scenario tree (every distribution of
// at most k faults over the copies of the policy assignment) and simulates
// the distributed quasi-static execution of each scenario with one
// deterministic list-scheduling policy.  Determinism gives the quasi-static
// property for free: two scenarios that share a condition-history prefix
// make identical decisions up to the divergence point, so the per-scenario
// activations merge into consistent table columns.  Column guards are the
// intersection of the revealed condition values over all scenarios that
// produce the same activation.  They can keep literals that separate no
// columns, so they are not always the paper's minimal conjunctions
// (Fig. 6).
//
// Transparency (frozen processes/messages) is honoured by a fixpoint: the
// start of a frozen item is pinned to the maximum over all scenarios of its
// natural start, and scenarios are re-simulated until no pin moves (at most
// 64 rounds; a run that hits the cap logs a warning).  Frozen
// messages are always transmitted on the bus (even between co-located
// processes) so their slot is observable in every scenario, as in the
// paper's Fig. 6 where frozen m3 occupies a bus slot at t = 120.
//
// Condition values are broadcast on the TDMA bus after the producing
// execution segment terminates (Section 5.2); remote nodes learn a copy's
// death only through such broadcasts.
//
// Scope note: checkpointing/re-execution chains and frozen sync nodes are
// exact; consumers of *replicated* producers wait until every copy has
// either delivered or is known dead (the conservative join of DESIGN.md §4).
#pragma once

#include <array>
#include <map>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "fault/scenario.h"
#include "sched/schedule_table.h"
#include "util/cancellation.h"

namespace ftes {

class ThreadPool;

/// Execution of one copy within one scenario.
struct ExecTrace {
  CopyRef copy;
  Time start = 0;
  Time end = 0;  ///< completion (survived) or node-release on death
  bool died = false;
  int faults = 0;
  std::vector<Time> attempt_starts;  ///< absolute; [0] == start
};

/// One bus transmission within one scenario.
struct TxTrace {
  bool is_condition = false;
  MessageId msg;      ///< valid for data / frozen-sync transmissions
  int src_copy = -1;  ///< -1 for frozen-sync transmissions
  int cond_id = -1;   ///< valid for condition broadcasts
  bool value = false; ///< broadcast condition value
  NodeId sender;
  Time ready = 0;
  Time start = 0;
  Time finish = 0;
};

/// A revealed condition value (global timeline).
struct Reveal {
  int cond_id = -1;
  bool value = false;
  Time at = 0;
};

struct ScenarioTrace {
  FaultScenario scenario;
  std::vector<ExecTrace> execs;
  std::vector<TxTrace> txs;
  std::vector<Reveal> reveals;  ///< sorted by time
  Time makespan = 0;
};

/// The condition values one scenario reveals, indexed by condition id: the
/// earliest reveal time of each (condition, value).  Built in O(reveals);
/// asking whether a literal is known by a time is one array read.
class RevealIndex {
 public:
  explicit RevealIndex(const std::vector<Reveal>& reveals);

  /// True if condition `lit.vertex` was revealed with value `lit.faulted`
  /// at or before `t`.  A condition the scenario never revealed (or an id
  /// no registry issued) is unknown.
  [[nodiscard]] bool known(Literal lit, Time t) const {
    const auto id = static_cast<std::size_t>(lit.vertex);
    return lit.vertex >= 0 && id < at_[0].size() &&
           at_[lit.faulted ? 1 : 0][id] <= t;
  }

 private:
  std::array<std::vector<Time>, 2> at_;  ///< [value][id]; infinity = never
};

struct CondScheduleOptions {
  /// Guard against the exponential scenario tree.
  int max_scenarios = 200000;
  /// When false, transparency flags in the application are ignored
  /// (performance-optimal schedules; used as the 0%-frozen ablation point).
  bool respect_transparency = true;
  /// Schedule condition-value broadcasts on the bus (Section 5.2).  Turning
  /// them off models idealized signalling: remote nodes learn conditions
  /// (including copy deaths) instantly.  Used by ablations and by tests
  /// comparing against the WCSL DP, which ignores broadcast contention.
  bool schedule_condition_broadcasts = true;
  /// Concurrent per-scenario simulations (1 = serial; 0 = all hardware
  /// threads).  Scenarios are independent within a fixpoint iteration and
  /// results are collected in scenario order; the table fold is serial, so
  /// the output is identical for every thread count.
  int threads = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: polled per simulated scenario and per
  /// trace folded into the tables.  Tables built from a scenario subset
  /// would be wrong (not partial), so the generator throws CancelledError
  /// when the token fires.  nullptr = never cancelled.
  CancellationToken* cancel = nullptr;
};

struct CondScheduleResult {
  ScheduleTables tables;
  std::vector<ScenarioTrace> traces;
  /// Worst-case completion over all scenarios.
  Time wcsl = 0;
  int scenario_count = 0;
  /// Pinned start of every frozen copy, keyed by display label.
  // lint: cold-path -- result metadata built once per schedule; ordered so
  // transparency reports print deterministically
  std::map<std::string, Time> frozen_starts;
};

[[nodiscard]] CondScheduleResult conditional_schedule(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, const FaultModel& model,
    const CondScheduleOptions& options = {});

}  // namespace ftes
