#include "ftcpg/ftcpg.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "graph/digraph.h"

namespace ftes {

Guard Guard::of(std::vector<Literal> lits) {
  std::sort(lits.begin(), lits.end());
  lits.erase(std::unique(lits.begin(), lits.end()), lits.end());
  // Sorted by (vertex, polarity): an opposite pair sits side by side.
  for (std::size_t i = 1; i < lits.size(); ++i) {
    if (lits[i].vertex == lits[i - 1].vertex) {
      throw std::logic_error("contradictory literals in guard");
    }
  }
  Guard g;
  g.lits_ = std::move(lits);
  return g;
}

void Guard::add(Literal lit) {
  if (contains(Literal{lit.vertex, !lit.faulted})) {
    throw std::logic_error("contradictory literal added to guard");
  }
  const auto at = std::lower_bound(lits_.begin(), lits_.end(), lit);
  if (at != lits_.end() && *at == lit) return;
  lits_.insert(at, lit);
}

bool Guard::contains(Literal lit) const {
  return std::binary_search(lits_.begin(), lits_.end(), lit);
}

int Guard::faults() const {
  int n = 0;
  for (const Literal& l : lits_) n += l.faulted ? 1 : 0;
  return n;
}

bool Guard::contradicts(const Guard& other) const {
  for (const Literal& l : lits_) {
    if (other.contains(Literal{l.vertex, !l.faulted})) return true;
  }
  return false;
}

Guard Guard::conjoin(const Guard& other) const {
  if (contradicts(other)) throw std::logic_error("contradictory guards");
  Guard g = *this;
  for (const Literal& l : other.lits_) g.add(l);
  return g;
}

int Ftcpg::add_node(FtcpgNode node) {
  nodes_.push_back(std::move(node));
  return node_count() - 1;
}

void Ftcpg::add_edge(int from, int to, std::optional<Literal> condition) {
  if (from < 0 || from >= node_count() || to < 0 || to >= node_count()) {
    throw std::out_of_range("FT-CPG edge endpoint out of range");
  }
  edges_.push_back(FtcpgEdge{from, to, condition});
}

std::vector<int> Ftcpg::successors(int v) const {
  std::vector<int> out;
  for (const FtcpgEdge& e : edges_) {
    if (e.from == v) out.push_back(e.to);
  }
  return out;
}

std::vector<int> Ftcpg::predecessors(int v) const {
  std::vector<int> in;
  for (const FtcpgEdge& e : edges_) {
    if (e.to == v) in.push_back(e.from);
  }
  return in;
}

Ftcpg::Census Ftcpg::census() const {
  Census c;
  for (const FtcpgNode& n : nodes_) {
    switch (n.kind) {
      case FtcpgNodeKind::kRegular: ++c.regular; break;
      case FtcpgNodeKind::kConditional: ++c.conditional; break;
      case FtcpgNodeKind::kSynchronization: ++c.synchronization; break;
    }
  }
  for (const FtcpgEdge& e : edges_) {
    if (e.condition) {
      ++c.conditional_edges;
    } else {
      ++c.simple_edges;
    }
  }
  return c;
}

std::vector<int> Ftcpg::copies_of(ProcessId p) const {
  std::vector<int> result;
  for (int v = 0; v < node_count(); ++v) {
    const FtcpgNode& n = nodes_[static_cast<std::size_t>(v)];
    if (n.role == FtcpgNodeRole::kProcessExec && n.process == p) {
      result.push_back(v);
    }
  }
  return result;
}

void Ftcpg::check_invariants() const {
  // Acyclicity via the generic digraph.
  Digraph g(node_count());
  for (const FtcpgEdge& e : edges_) g.add_edge(e.from, e.to);
  if (!g.is_acyclic()) throw std::logic_error("FT-CPG has a cycle");

  // Conditional-edge discipline.
  for (int v = 0; v < node_count(); ++v) {
    const FtcpgNode& n = nodes_[static_cast<std::size_t>(v)];
    bool has_conditional_out = false;
    std::map<bool, int> polarity_count;
    for (const FtcpgEdge& e : edges_) {
      if (e.from != v || !e.condition) continue;
      has_conditional_out = true;
      if (e.condition->vertex != v) {
        throw std::logic_error(
            "conditional edge labelled with a foreign condition");
      }
      ++polarity_count[e.condition->faulted];
    }
    if (has_conditional_out && n.kind != FtcpgNodeKind::kConditional) {
      throw std::logic_error("conditional edges leaving a non-conditional node");
    }
    if (n.kind == FtcpgNodeKind::kConditional && !has_conditional_out) {
      throw std::logic_error("conditional node without conditional edges");
    }
  }
}

std::string Ftcpg::to_dot() const {
  std::ostringstream out;
  out << "digraph FTCPG {\n  rankdir=TB;\n";
  for (int v = 0; v < node_count(); ++v) {
    const FtcpgNode& n = nodes_[static_cast<std::size_t>(v)];
    const char* shape = "ellipse";
    if (n.kind == FtcpgNodeKind::kSynchronization) shape = "box";
    if (n.role == FtcpgNodeRole::kMessage) shape = "diamond";
    out << "  v" << v << " [label=\"" << n.label << "\" shape=" << shape;
    if (n.kind == FtcpgNodeKind::kConditional) out << " style=bold";
    out << "];\n";
  }
  for (const FtcpgEdge& e : edges_) {
    out << "  v" << e.from << " -> v" << e.to;
    if (e.condition) {
      out << " [style=dashed label=\"" << (e.condition->faulted ? "F" : "!F")
          << nodes_[static_cast<std::size_t>(e.condition->vertex)].label
          << "\"]";
    }
    out << ";\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace ftes
