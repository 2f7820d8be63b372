// Small generic directed-graph substrate of the FT-CPG (src/ftcpg/):
// adjacency lists over dense integer vertex ids, topological sort,
// reachability, critical-path priorities, and GraphViz DOT export.  The
// per-candidate scheduling and WCSL paths (src/sched/, src/opt/) use flat
// arrays instead; their test references (bench/reference_*.h) keep the
// historical Digraph-based versions.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/time_types.h"

namespace ftes {

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(int vertex_count);

  int add_vertex();
  void add_edge(int from, int to);

  [[nodiscard]] int vertex_count() const {
    return static_cast<int>(out_.size());
  }
  [[nodiscard]] int edge_count() const { return edge_count_; }
  [[nodiscard]] const std::vector<int>& successors(int v) const;
  [[nodiscard]] const std::vector<int>& predecessors(int v) const;
  [[nodiscard]] bool has_edge(int from, int to) const;

  /// Kahn topological order; throws std::invalid_argument on a cycle.
  [[nodiscard]] std::vector<int> topological_order() const;

  [[nodiscard]] bool is_acyclic() const;

  /// Vertices reachable from `start` (including `start`).
  [[nodiscard]] std::vector<bool> reachable_from(int start) const;

  /// Per-vertex longest remaining path *including* own weight (standard
  /// critical-path priority for list scheduling).  Requires acyclic.
  [[nodiscard]] std::vector<Time> critical_path_from(
      const std::function<Time(int)>& weight) const;

  /// DOT text; `label(v)` supplies vertex labels.
  [[nodiscard]] std::string to_dot(
      const std::function<std::string(int)>& label) const;

 private:
  void check_vertex(int v) const;

  std::vector<std::vector<int>> out_;
  std::vector<std::vector<int>> in_;
  int edge_count_ = 0;
};

}  // namespace ftes
