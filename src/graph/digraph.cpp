#include "graph/digraph.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ftes {

Digraph::Digraph(int vertex_count) {
  if (vertex_count < 0) throw std::invalid_argument("negative vertex count");
  out_.resize(static_cast<std::size_t>(vertex_count));
  in_.resize(static_cast<std::size_t>(vertex_count));
}

int Digraph::add_vertex() {
  out_.emplace_back();
  in_.emplace_back();
  return vertex_count() - 1;
}

void Digraph::check_vertex(int v) const {
  if (v < 0 || v >= vertex_count()) {
    throw std::out_of_range("vertex out of range");
  }
}

void Digraph::add_edge(int from, int to) {
  check_vertex(from);
  check_vertex(to);
  if (from == to) throw std::invalid_argument("self-loop");
  out_[static_cast<std::size_t>(from)].push_back(to);
  in_[static_cast<std::size_t>(to)].push_back(from);
  ++edge_count_;
}

const std::vector<int>& Digraph::successors(int v) const {
  check_vertex(v);
  return out_[static_cast<std::size_t>(v)];
}

const std::vector<int>& Digraph::predecessors(int v) const {
  check_vertex(v);
  return in_[static_cast<std::size_t>(v)];
}

bool Digraph::has_edge(int from, int to) const {
  check_vertex(from);
  check_vertex(to);
  const auto& succ = out_[static_cast<std::size_t>(from)];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

std::vector<int> Digraph::topological_order() const {
  std::vector<int> indegree(static_cast<std::size_t>(vertex_count()), 0);
  for (int v = 0; v < vertex_count(); ++v) {
    for (int s : out_[static_cast<std::size_t>(v)]) {
      ++indegree[static_cast<std::size_t>(s)];
    }
  }
  std::vector<int> queue;
  for (int v = 0; v < vertex_count(); ++v) {
    if (indegree[static_cast<std::size_t>(v)] == 0) queue.push_back(v);
  }
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(vertex_count()));
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int v = queue[head];
    order.push_back(v);
    for (int s : out_[static_cast<std::size_t>(v)]) {
      if (--indegree[static_cast<std::size_t>(s)] == 0) queue.push_back(s);
    }
  }
  if (static_cast<int>(order.size()) != vertex_count()) {
    throw std::invalid_argument("digraph has a cycle");
  }
  return order;
}

bool Digraph::is_acyclic() const {
  try {
    (void)topological_order();
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

std::vector<bool> Digraph::reachable_from(int start) const {
  check_vertex(start);
  std::vector<bool> seen(static_cast<std::size_t>(vertex_count()), false);
  std::vector<int> stack{start};
  seen[static_cast<std::size_t>(start)] = true;
  while (!stack.empty()) {
    const int v = stack.back();
    stack.pop_back();
    for (int s : out_[static_cast<std::size_t>(v)]) {
      if (!seen[static_cast<std::size_t>(s)]) {
        seen[static_cast<std::size_t>(s)] = true;
        stack.push_back(s);
      }
    }
  }
  return seen;
}

std::vector<Time> Digraph::critical_path_from(
    const std::function<Time(int)>& weight) const {
  std::vector<Time> rem(static_cast<std::size_t>(vertex_count()), 0);
  const std::vector<int> order = topological_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int v = *it;
    Time best = 0;
    for (int s : out_[static_cast<std::size_t>(v)]) {
      best = std::max(best, rem[static_cast<std::size_t>(s)]);
    }
    rem[static_cast<std::size_t>(v)] = best + weight(v);
  }
  return rem;
}

std::string Digraph::to_dot(
    const std::function<std::string(int)>& label) const {
  std::ostringstream out;
  out << "digraph G {\n  rankdir=TB;\n";
  for (int v = 0; v < vertex_count(); ++v) {
    out << "  v" << v << " [label=\"" << label(v) << "\"];\n";
  }
  for (int v = 0; v < vertex_count(); ++v) {
    for (int s : out_[static_cast<std::size_t>(v)]) {
      out << "  v" << v << " -> v" << s << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace ftes
