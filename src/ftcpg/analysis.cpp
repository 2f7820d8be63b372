#include "ftcpg/analysis.h"

#include <algorithm>
#include <set>

#include "fault/recovery.h"
#include "graph/digraph.h"

namespace ftes {

Time ftcpg_vertex_weight(const Ftcpg& graph, int vertex,
                         const Application& app,
                         const PolicyAssignment& assignment) {
  const FtcpgNode& node = graph.node(vertex);
  switch (node.role) {
    case FtcpgNodeRole::kProcessExec: {
      const CopyRecovery law = CopyRecovery::of(
          app.process(node.process),
          assignment.plan(node.process)
              .copies.at(static_cast<std::size_t>(node.copy)));
      // The first attempt runs E(n, 0) (C for a replica); each recovery
      // vertex carries one fault's step, its recovery overheads included,
      // so a chain sums to E(n, f).
      return node.attempt > 0 ? law.step() : law.run_time(0);
    }
    case FtcpgNodeRole::kMessage:
      return app.message(node.message).size;  // schedule-free lower bound
    case FtcpgNodeRole::kProcessSync:
    case FtcpgNodeRole::kMessageSync:
      return 0;  // synchronization nodes take zero time (Section 5.1)
  }
  return 0;
}

Time ftcpg_critical_path(const Ftcpg& graph, const Application& app,
                         const PolicyAssignment& assignment,
                         const FaultModel& model) {
  const int k = model.k;
  Digraph g(graph.node_count());
  for (const FtcpgEdge& e : graph.edges()) g.add_edge(e.from, e.to);

  // Budgeted longest path: traversing a conditional edge whose literal is
  // positive (F == the source execution faulted) consumes one fault.
  std::vector<std::vector<Time>> L(
      static_cast<std::size_t>(graph.node_count()),
      std::vector<Time>(static_cast<std::size_t>(k) + 1, -1));
  Time best = 0;
  for (int v : g.topological_order()) {
    const Time w = ftcpg_vertex_weight(graph, v, app, assignment);
    for (int b = 0; b <= k; ++b) {
      Time in = 0;
      bool reachable = g.predecessors(v).empty();
      for (const FtcpgEdge& e : graph.edges()) {
        if (e.to != v) continue;
        const bool costs_fault = e.condition && e.condition->faulted;
        const int need = b - (costs_fault ? 1 : 0);
        if (need < 0) continue;
        const Time pred = L[static_cast<std::size_t>(e.from)]
                           [static_cast<std::size_t>(need)];
        if (pred < 0) continue;
        reachable = true;
        in = std::max(in, pred);
      }
      if (!reachable) continue;
      L[static_cast<std::size_t>(v)][static_cast<std::size_t>(b)] = in + w;
      best = std::max(best, in + w);
    }
  }
  return best;
}

int ftcpg_scenario_width(const Ftcpg& graph, ProcessId process) {
  std::set<Guard> guards;
  for (int v : graph.copies_of(process)) {
    guards.insert(graph.node(v).guard);
  }
  return static_cast<int>(guards.size());
}

}  // namespace ftes
