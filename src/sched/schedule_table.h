// Quasi-static schedule tables (DATE'08 Section 5.2, Fig. 6).
//
// The output of the conditional scheduler is one table per computation node
// (plus the shared bus rows).  A table has one row per process / message /
// broadcast condition and one activation time per *condition conjunction*:
// the run-time scheduler on each node matches the already-known condition
// values against the column guards and fires the corresponding activation.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/policy.h"
#include "fault/recovery.h"
#include "fault/scenario.h"
#include "ftcpg/ftcpg.h"  // reuses Guard/Literal
#include "util/time_types.h"

namespace ftes {

/// Registry of condition literals used by schedule tables.  A condition
/// F_{Pi}^{j} is true iff the j-th fault hit the given copy of Pi.  The
/// registry assigns each (copy, j) a dense id usable in Guard literals.
class CondRegistry {
 public:
  /// Returns the id, registering on first use.  `name` is the producing
  /// process label (e.g. "P1" or "P1(2)").
  int id(CopyRef copy, int fault_index, const std::string& name);

  /// Id lookup without registration; -1 if unknown.
  [[nodiscard]] int find(CopyRef copy, int fault_index) const;

  [[nodiscard]] const std::string& label(int id) const;
  [[nodiscard]] CopyRef copy_of(int id) const;
  [[nodiscard]] int fault_index_of(int id) const;
  [[nodiscard]] int size() const { return static_cast<int>(labels_.size()); }

  /// "F_P1^1 & !F_P2^1" style rendering of a guard; "true" when empty.
  [[nodiscard]] std::string render(const Guard& guard) const;

 private:
  // lint: cold-path -- condition-id interning while tables are built; the
  // move-evaluation loop never touches ScheduleTables
  std::map<std::pair<std::pair<std::int32_t, int>, int>, int> ids_;
  std::vector<std::string> labels_;
  std::vector<CopyRef> copies_;
  std::vector<int> fault_indices_;
};

/// One activation: fires at `start` when the run-time scheduler knows the
/// guard to hold.  `label` identifies the concrete execution (e.g. the
/// second re-execution attempt "P1/3").
struct TableEntry {
  Guard guard;
  Time start = 0;
  std::string label;
};

/// Rows keyed by row name ("P1", "m2", "F_P1^1"), values sorted by start.
// lint: cold-path -- final exported table rows, built once per schedule;
// the ordered keys are what makes table printing/diffing deterministic
using TableRows = std::map<std::string, std::vector<TableEntry>>;

/// Row name of copy `copy` of the process or message `name`, whose
/// producing process runs under `plan`: `name`, or `name(copy+1)` when the
/// plan has several copies.  A negative `copy` (a frozen message's sync
/// transmission, sent for no particular copy) gives `name`.  The table
/// producer (sched/cond_scheduler.cpp) and its checkers (sim/executor.cpp,
/// sim/fuzzer.cpp) must agree on every name, so all of them use this.
[[nodiscard]] std::string copy_row_name(const std::string& name,
                                        const ProcessPlan& plan, int copy);

/// Label of attempt `attempt` (0 = the first execution) of the copy whose
/// row is `row`: "P1/1", "P1(2)/3".  The table producer and the fuzzer
/// (sim/fuzzer.cpp) both use this.
[[nodiscard]] std::string attempt_label(const std::string& row, int attempt);

/// The flat copy numbering of the table producer and its checkers: copy j
/// of process i is number offsets[i] + j; offsets.back() counts the copies.
[[nodiscard]] std::vector<int> copy_offsets(const Application& app,
                                            const PolicyAssignment& pa);

/// One process copy as the table producer (sched/cond_scheduler.cpp) and
/// its fuzzer (sim/fuzzer.cpp) see it.
struct TableCopy {
  CopyRef ref;
  NodeId node;
  CopyRecovery law;
  Time release = 0;
  std::string name;  ///< row name: "P1" or "P1(2)" (copy_row_name)
};

/// Every copy of the assignment, in copy_offsets order.
[[nodiscard]] std::vector<TableCopy> table_copies(const Application& app,
                                                  const PolicyAssignment& pa);

struct ScheduleTables {
  std::vector<TableRows> node_rows;  ///< indexed by NodeId
  TableRows bus_rows;                ///< messages + condition broadcasts
  CondRegistry conds;

  /// Worst-case completion over all scenarios (the schedule's WCSL).
  Time wcsl = 0;
  /// Fault scenarios covered (including the fault-free one).
  int scenario_count = 0;

  /// Total number of (row, entry) activations -- the paper's "size of the
  /// schedule tables" cost metric for transparency trade-offs.
  [[nodiscard]] int total_entries() const;

  /// Fig. 6-style text rendering.
  [[nodiscard]] std::string to_text(const Architecture& arch) const;
};

}  // namespace ftes
