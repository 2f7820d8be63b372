// Concrete fault scenarios: which copy of which process is struck, and how
// many times.  The conditional scheduler branches over these, the runtime
// simulator injects them, and property tests sweep them exhaustively for
// small k.
//
// A scenario assigns every (process, copy) a number of faults; the faults on
// a checkpointed copy strike its successive execution attempts (worst case:
// each fault lands at the very end of the running segment).  The total over
// all copies never exceeds the fault model's k.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fault/policy.h"
#include "util/time_types.h"

namespace ftes {

/// Identifies one scheduled copy of a process.
struct CopyRef {
  ProcessId process;
  int copy = 0;

  friend bool operator==(const CopyRef& a, const CopyRef& b) {
    return a.process == b.process && a.copy == b.copy;
  }
  friend bool operator<(const CopyRef& a, const CopyRef& b) {
    if (a.process != b.process) return a.process < b.process;
    return a.copy < b.copy;
  }
};

class FaultScenario {
 public:
  FaultScenario() = default;

  void add_fault(CopyRef copy, int count = 1);
  [[nodiscard]] int faults_on(CopyRef copy) const;
  [[nodiscard]] int total_faults() const { return total_; }
  [[nodiscard]] const std::map<CopyRef, int>& hits() const { return hits_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  [[nodiscard]] std::string to_string(const Application& app) const;

 private:
  std::map<CopyRef, int> hits_;
  int total_ = 0;
};

/// Enumerates *all* fault scenarios with at most `k` faults distributed over
/// the copies of `assignment` (including the empty scenario).  Exponential
/// in k; intended for small applications in tests and the conditional
/// scheduler.  The count is C(copies + k, k)-ish, so callers should keep
/// k <= 3 and copies modest.
[[nodiscard]] std::vector<FaultScenario> enumerate_scenarios(
    const Application& app, const PolicyAssignment& assignment, int k);

/// Checks the paper's guarantee on one process: for every admissible split
/// of k faults among its copies, at least one copy survives.  Returns the
/// first violating scenario, or an empty optional-like flag via bool.
[[nodiscard]] bool process_tolerates_all_scenarios(const ProcessPlan& plan,
                                                   int k);

}  // namespace ftes
