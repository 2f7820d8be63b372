// TDMA bus access optimization (Eles et al. [8]: "Scheduling with Bus
// Access Optimization for Distributed Embedded Systems").
//
// The order and length of the TDMA slots is itself a synthesis knob: a node
// that sends on the application's critical path wants its slot early in the
// round and long enough for one frame, while idle nodes' slots pad the
// round and delay everybody.  This module hill-climbs over
//   * slot order (swap two slots in the round), and
//   * slot lengths (scale a slot within [min,max]),
// minimizing the worst-case schedule length of a fixed policy assignment.
#pragma once

#include <cstdint>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "util/time_types.h"

namespace ftes {

/// Bounds of a rescaled slot's length.
inline constexpr Time kMinSlotLength = 1;
inline constexpr Time kMaxSlotLength = 64;

struct BusOptOptions {
  int iterations = 200;
  std::uint64_t seed = 1;
};

struct BusOptResult {
  TdmaBus bus;
  Time wcsl_before = 0;
  Time wcsl_after = 0;
  int evaluations = 0;
};

/// Optimizes the bus of `arch` for the given assignment; returns the tuned
/// bus (the caller installs it with Architecture::set_bus).  Never returns
/// a bus worse than the input.
[[nodiscard]] BusOptResult optimize_bus_access(const Application& app,
                                               const Architecture& arch,
                                               const PolicyAssignment& assignment,
                                               const FaultModel& model,
                                               const BusOptOptions& options);

}  // namespace ftes
