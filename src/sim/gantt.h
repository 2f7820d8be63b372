// ASCII Gantt rendering of scenario traces -- the visual aid the examples
// and the CLI use to show what a fault scenario does to the timeline.
//
// One lane per node plus one for the bus; executions print as `#` blocks
// (lower-case `x` for the portion re-executed after faults, `!` at a
// death), transmissions as `=`, idle as `.`.
#pragma once

#include <string>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/policy.h"
#include "sched/cond_scheduler.h"

namespace ftes {

/// Characters of the time axis.
inline constexpr int kGanttWidth = 80;

/// Renders one scenario trace.
[[nodiscard]] std::string render_gantt(const Application& app,
                                       const Architecture& arch,
                                       const PolicyAssignment& assignment,
                                       const ScenarioTrace& trace);

}  // namespace ftes
