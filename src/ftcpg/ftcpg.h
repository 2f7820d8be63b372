// Fault-Tolerant Conditional Process Graph (DATE'08 Section 5.1, Fig. 5).
//
// The FT-CPG G(V_P u V_C u V_T, E_S u E_C) unrolls an application under a
// policy assignment and a fault budget k into all alternative execution
// traces:
//   * regular nodes        -- executions that cannot fail any more (their
//                             fault budget is exhausted) and messages;
//   * conditional nodes    -- executions that may fail; they "produce" the
//                             condition F (true iff the execution faults)
//                             and have conditional out-edges;
//   * synchronization nodes-- frozen processes/messages (T(v) = frozen);
//                             alternative paths may only meet here, and the
//                             scheduler gives them one start time across all
//                             scenarios.
//
// Every execution vertex carries its *guard*: the conjunction of condition
// literals under which it runs (the column headers of the paper's Fig. 6
// schedule tables are exactly such guards).
#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "app/application.h"
#include "fault/policy.h"
#include "util/time_types.h"

namespace ftes {

/// One condition literal: "execution vertex `vertex` faulted" (positive) or
/// "completed fault-free" (negative).
struct Literal {
  int vertex = -1;     ///< FT-CPG vertex id of the conditional execution
  bool faulted = true;

  friend bool operator==(const Literal& a, const Literal& b) {
    return a.vertex == b.vertex && a.faulted == b.faulted;
  }
  friend bool operator<(const Literal& a, const Literal& b) {
    if (a.vertex != b.vertex) return a.vertex < b.vertex;
    return a.faulted < b.faulted;
  }
};

/// A guard: conjunction of literals, kept sorted and duplicate-free.
class Guard {
 public:
  Guard() = default;

  /// The conjunction of `lits`: sorted once, duplicates collapsed.  Throws
  /// std::logic_error if some vertex appears with both polarities.
  [[nodiscard]] static Guard of(std::vector<Literal> lits);

  /// Inserts `lit` in order (no-op if present); throws std::logic_error if
  /// its opposite is present.
  void add(Literal lit);
  /// Drops, in place, every literal for which `keep` is false.
  template <typename Keep>
  void retain(Keep keep) {
    lits_.erase(std::remove_if(lits_.begin(), lits_.end(),
                               [&](const Literal& l) { return !keep(l); }),
                lits_.end());
  }
  [[nodiscard]] const std::vector<Literal>& literals() const { return lits_; }
  [[nodiscard]] bool contains(Literal lit) const;
  /// Number of positive (faulted) literals == faults consumed on this path.
  [[nodiscard]] int faults() const;
  /// True if the two guards cannot hold simultaneously (some vertex appears
  /// with opposite polarity).
  [[nodiscard]] bool contradicts(const Guard& other) const;
  /// Conjunction of two guards; throws std::logic_error if contradictory.
  [[nodiscard]] Guard conjoin(const Guard& other) const;
  friend bool operator==(const Guard& a, const Guard& b) {
    return a.lits_ == b.lits_;
  }
  friend bool operator<(const Guard& a, const Guard& b) {
    return a.lits_ < b.lits_;
  }

 private:
  std::vector<Literal> lits_;
};

enum class FtcpgNodeKind { kRegular, kConditional, kSynchronization };
enum class FtcpgNodeRole { kProcessExec, kMessage, kProcessSync, kMessageSync };

struct FtcpgNode {
  FtcpgNodeKind kind = FtcpgNodeKind::kRegular;
  FtcpgNodeRole role = FtcpgNodeRole::kProcessExec;

  // kProcessExec: which execution this vertex is.
  ProcessId process;       ///< valid for process exec / process sync
  int copy = 0;            ///< replica index within the plan
  int attempt = 0;         ///< 0 = first execution, a = a-th recovery
  MessageId message;       ///< valid for message / message sync

  Guard guard;             ///< conjunction under which this vertex executes
  NodeId mapped_node;      ///< CPU for exec vertices; invalid for bus/sync

  std::string label;       ///< human-readable (P2^3, m1^2, S_P3, ...)
};

struct FtcpgEdge {
  int from = -1;
  int to = -1;
  /// Empty for simple edges E_S; one literal for conditional edges E_C.
  std::optional<Literal> condition;
};

class Ftcpg {
 public:
  int add_node(FtcpgNode node);
  void add_edge(int from, int to, std::optional<Literal> condition = {});

  [[nodiscard]] const std::vector<FtcpgNode>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<FtcpgEdge>& edges() const { return edges_; }
  [[nodiscard]] const FtcpgNode& node(int v) const { return nodes_.at(v); }
  [[nodiscard]] int node_count() const {
    return static_cast<int>(nodes_.size());
  }
  [[nodiscard]] int edge_count() const {
    return static_cast<int>(edges_.size());
  }

  [[nodiscard]] std::vector<int> successors(int v) const;
  [[nodiscard]] std::vector<int> predecessors(int v) const;

  /// Census by kind, e.g. for reproducing the Fig. 5 structure.
  struct Census {
    int regular = 0;
    int conditional = 0;
    int synchronization = 0;
    int simple_edges = 0;
    int conditional_edges = 0;
  };
  [[nodiscard]] Census census() const;

  /// Copies of a given application process (the paper's P_i^m numbering).
  [[nodiscard]] std::vector<int> copies_of(ProcessId p) const;

  /// Structural sanity: acyclic; conditional out-edges of a vertex are
  /// labelled with literals of that vertex only and cover both polarities
  /// at most once; sync nodes have zero execution time by construction.
  /// Throws std::logic_error on violation.
  void check_invariants() const;

  [[nodiscard]] std::string to_dot() const;

 private:
  std::vector<FtcpgNode> nodes_;
  std::vector<FtcpgEdge> edges_;
};

}  // namespace ftes
