#include "sim/gantt.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <vector>

namespace ftes {

std::string render_gantt(const Application& app, const Architecture& arch,
                         const PolicyAssignment& assignment,
                         const ScenarioTrace& trace,
                         const GanttOptions& options) {
  Time horizon = 1;
  for (const ExecTrace& e : trace.execs) horizon = std::max(horizon, e.end);
  for (const TxTrace& t : trace.txs) horizon = std::max(horizon, t.finish);

  const int width = std::max(options.width, 10);
  // Integer column mapping (no floats in sim/, R4): col(t) = t*width/horizon
  // truncated.  `wide` guards the t*width product for absurd horizons by
  // falling back to a ticks-per-column divisor.
  const Time w = static_cast<Time>(width);
  const bool wide = horizon > std::numeric_limits<Time>::max() / w;
  const Time coarse = (horizon + w - 1) / w;  // ticks per column when wide
  auto col = [&](Time t) {
    const Time c = wide ? t / coarse : t * w / horizon;
    return std::min(width - 1, static_cast<int>(c));
  };
  auto tick_at = [&](int c) {  // first tick rendered in column c
    return wide ? static_cast<Time>(c) * coarse
                : static_cast<Time>(c) * horizon / w;
  };

  std::ostringstream out;
  out << "scenario " << trace.scenario.to_string(app) << ", makespan "
      << trace.makespan << ":\n";

  for (int n = 0; n < arch.node_count(); ++n) {
    std::string lane(static_cast<std::size_t>(width), '.');
    std::vector<std::string> labels;
    for (const ExecTrace& e : trace.execs) {
      const NodeId node = assignment.plan(e.copy.process)
                              .copies.at(static_cast<std::size_t>(e.copy.copy))
                              .node;
      if (node.get() != n) continue;
      const int from = col(e.start);
      const int to = std::max(from, col(e.end) - 1);
      // Fault-free part '#', recovery part 'x'.
      const Time first_recovery =
          e.attempt_starts.size() > 1 ? e.attempt_starts[1] : e.end;
      for (int c = from; c <= to; ++c) {
        const Time t = tick_at(c);
        lane[static_cast<std::size_t>(c)] = t >= first_recovery ? 'x' : '#';
      }
      if (e.died) lane[static_cast<std::size_t>(to)] = '!';
      labels.push_back(copy_row_name(app.process(e.copy.process).name,
                                     assignment.plan(e.copy.process),
                                     e.copy.copy) +
                       "@" + std::to_string(e.start));
    }
    out << "  " << arch.node(NodeId{n}).name << " |" << lane << "|";
    for (const std::string& l : labels) out << " " << l;
    out << "\n";
  }

  std::string bus_lane(static_cast<std::size_t>(width), '.');
  for (const TxTrace& t : trace.txs) {
    const char mark = t.is_condition ? '-' : '=';
    const int from = col(t.start);
    const int to = std::max(from, col(t.finish) - 1);
    for (int c = from; c <= to; ++c) {
      bus_lane[static_cast<std::size_t>(c)] = mark;
    }
  }
  const std::size_t name_width = arch.node(NodeId{0}).name.size();
  out << "  bus" << std::string(name_width > 3 ? name_width - 3 : 0, ' ')
      << " |" << bus_lane << "| (= data, - condition)\n";
  return out.str();
}

}  // namespace ftes
