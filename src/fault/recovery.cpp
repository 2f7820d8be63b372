#include "fault/recovery.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ftes {

Time segment_length(Time wcet, int checkpoints) {
  if (checkpoints < 1) throw std::invalid_argument("checkpoints must be >= 1");
  if (wcet <= 0) throw std::invalid_argument("wcet must be > 0");
  return (wcet + checkpoints - 1) / checkpoints;
}

Time checkpointed_exec_time(const RecoveryParams& p, int checkpoints,
                            int faults) {
  if (faults < 0) throw std::invalid_argument("negative fault count");
  const Time fault_free = p.wcet + static_cast<Time>(checkpoints) * p.chi;
  if (faults == 0) return fault_free;
  const Time per_fault = segment_length(p.wcet, checkpoints) + p.alpha + p.mu;
  return fault_free + static_cast<Time>(faults) * per_fault;
}

Time replica_exec_time(const RecoveryParams& p) {
  if (p.wcet <= 0) throw std::invalid_argument("wcet must be > 0");
  return p.wcet;
}

int optimal_checkpoints_local(const RecoveryParams& p, int faults,
                              int max_checkpoints) {
  if (max_checkpoints < 1) {
    throw std::invalid_argument("max_checkpoints must be >= 1");
  }
  if (faults <= 0) return 1;  // no fault to tolerate: checkpoints only cost
  if (p.chi <= 0) {
    // Checkpoints are free: more segments always shrink the re-executed
    // part, so the isolated optimum is the cap.
    return max_checkpoints;
  }
  // The continuous optimum is n0 = sqrt(faults*C/chi), but the ceil() in
  // segment_length flattens E into plateaus that can shift the discrete
  // optimum several steps away, so we scan the (small) range exactly.
  int best = 1;
  Time best_cost = checkpointed_exec_time(p, 1, faults);
  for (int n = 2; n <= max_checkpoints; ++n) {
    const Time cost = checkpointed_exec_time(p, n, faults);
    if (cost < best_cost) {
      best = n;
      best_cost = cost;
    }
  }
  return best;
}

}  // namespace ftes
