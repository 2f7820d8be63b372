#include "ftcpg/builder.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/recovery.h"

namespace ftes {

namespace {

/// One way a value can reach a consumer: the guard under which it happens
/// and the FT-CPG vertices the consumer must wait for.
struct DeliveryAlt {
  Guard guard;
  std::vector<int> parents;
};

/// Completion alternative of one copy: the vertex that finishes the copy
/// successfully plus its success guard; `conditional` says whether the
/// vertex produces a condition (so out-edges need the !F literal).
struct CompletionAlt {
  Guard guard;
  int vertex = -1;
  bool conditional = false;
};

class Builder {
 public:
  Builder(const Application& app, const PolicyAssignment& pa,
          const FaultModel& fm, const FtcpgBuildOptions& opts)
      : app_(app), pa_(pa), fm_(fm), opts_(opts) {}

  Ftcpg build() {
    for (ProcessId pid : app_.topological_order()) {
      expand_process(pid);
    }
    graph_.check_invariants();
    return std::move(graph_);
  }

 private:
  int add_node(FtcpgNode node) {
    if (graph_.node_count() >= opts_.max_vertices) {
      throw std::length_error(
          "FT-CPG exceeds max_vertices; reduce k or add transparency");
    }
    return graph_.add_node(std::move(node));
  }

  /// Edge from a completion vertex, carrying !F if the source still had
  /// recovery branches (i.e. is conditional).
  void add_success_edge(const CompletionAlt& from, int to) {
    if (from.conditional) {
      graph_.add_edge(from.vertex, to, Literal{from.vertex, false});
    } else {
      graph_.add_edge(from.vertex, to);
    }
  }

  void expand_process(ProcessId pid) {
    const Process& proc = app_.process(pid);
    const ProcessPlan& plan = pa_.plan(pid);

    // ---- 1. Input alternatives ------------------------------------------
    std::vector<DeliveryAlt> input_alts;
    if (proc.frozen) {
      // Synchronization node: all alternative input paths meet here and the
      // downstream contexts collapse to the empty guard.
      FtcpgNode sync;
      sync.kind = FtcpgNodeKind::kSynchronization;
      sync.role = FtcpgNodeRole::kProcessSync;
      sync.process = pid;
      sync.label = "S_" + proc.name;
      const int sv = add_node(std::move(sync));
      for (MessageId m : app_.inputs(pid)) {
        for (const DeliveryAlt& alt : deliveries_.at(m)) {
          for (int parent : alt.parents) {
            add_parent_edge(parent, sv);
          }
        }
      }
      input_alts.push_back(DeliveryAlt{Guard{}, {sv}});
    } else if (app_.inputs(pid).empty()) {
      input_alts.push_back(DeliveryAlt{Guard{}, {}});
    } else {
      // Cross product of the delivery alternatives of every input message,
      // keeping only compatible guard combinations within the fault budget.
      input_alts.push_back(DeliveryAlt{Guard{}, {}});
      for (MessageId m : app_.inputs(pid)) {
        std::vector<DeliveryAlt> next;
        for (const DeliveryAlt& base : input_alts) {
          for (const DeliveryAlt& add : deliveries_.at(m)) {
            if (base.guard.contradicts(add.guard)) continue;
            Guard joined = base.guard.conjoin(add.guard);
            if (joined.faults() > fm_.k) continue;
            DeliveryAlt combined;
            combined.guard = std::move(joined);
            combined.parents = base.parents;
            combined.parents.insert(combined.parents.end(),
                                    add.parents.begin(), add.parents.end());
            next.push_back(std::move(combined));
          }
        }
        input_alts = std::move(next);
      }
    }

    // ---- 2. Attempt chains per (input alternative x copy) ---------------
    // completions[copy] = all success alternatives of that copy.
    std::vector<std::vector<CompletionAlt>> completions(
        static_cast<std::size_t>(plan.copy_count()));
    for (const DeliveryAlt& in : input_alts) {
      for (int j = 0; j < plan.copy_count(); ++j) {
        const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
        build_attempt_chain(pid, j, copy, in,
                            completions[static_cast<std::size_t>(j)]);
      }
    }

    // ---- 3. Deliveries for every output message -------------------------
    for (MessageId mid : app_.outputs(pid)) {
      const Message& msg = app_.message(mid);
      if (msg.frozen) {
        // One synchronization node is the message; every completion of
        // every copy feeds it.
        FtcpgNode sync;
        sync.kind = FtcpgNodeKind::kSynchronization;
        sync.role = FtcpgNodeRole::kMessageSync;
        sync.message = mid;
        sync.process = pid;
        sync.label = "S_" + msg.name;
        const int sv = add_node(std::move(sync));
        for (const auto& copy_alts : completions) {
          for (const CompletionAlt& alt : copy_alts) {
            add_success_edge(alt, sv);
          }
        }
        deliveries_[mid] = {DeliveryAlt{Guard{}, {sv}}};
        continue;
      }
      // Non-frozen: cross product over copies (a consumer of a replicated
      // producer waits for all copies -- conservative join, DESIGN.md §4).
      const bool needs_bus = message_needs_bus(mid, plan);
      std::vector<DeliveryAlt> alts{DeliveryAlt{Guard{}, {}}};
      for (int j = 0; j < plan.copy_count(); ++j) {
        std::vector<DeliveryAlt> next;
        for (const DeliveryAlt& base : alts) {
          for (const CompletionAlt& comp :
               completions[static_cast<std::size_t>(j)]) {
            if (base.guard.contradicts(comp.guard)) continue;
            Guard joined = base.guard.conjoin(comp.guard);
            if (joined.faults() > fm_.k) continue;
            DeliveryAlt combined;
            combined.guard = joined;
            combined.parents = base.parents;
            int deliver_vertex = comp.vertex;
            if (needs_bus) {
              FtcpgNode mv;
              mv.kind = FtcpgNodeKind::kRegular;
              mv.role = FtcpgNodeRole::kMessage;
              mv.message = mid;
              mv.process = pid;
              mv.copy = j;
              mv.guard = joined;
              mv.label =
                  msg.name + "^" + std::to_string(++message_counter_[mid]);
              deliver_vertex = add_node(std::move(mv));
              add_success_edge(comp, deliver_vertex);
            }
            combined.parents.push_back(deliver_vertex);
            // Remember how to hang an edge off this delivery vertex later:
            // if it is the completion vertex itself and conditional, the
            // consumer edge needs the !F literal.
            if (!needs_bus && comp.conditional) {
              conditional_sources_[deliver_vertex] = comp.vertex;
            }
            next.push_back(std::move(combined));
          }
        }
        alts = std::move(next);
      }
      deliveries_[mid] = std::move(alts);
    }
  }

  /// Adds the edge parent -> to, restoring the !F literal when the parent
  /// vertex is a conditional execution delivering its own success.
  void add_parent_edge(int parent, int to) {
    auto it = conditional_sources_.find(parent);
    if (it != conditional_sources_.end()) {
      graph_.add_edge(parent, to, Literal{it->second, false});
    } else {
      graph_.add_edge(parent, to);
    }
  }

  void build_attempt_chain(ProcessId pid, int copy_index, const CopyPlan& copy,
                           const DeliveryAlt& in,
                           std::vector<CompletionAlt>& out) {
    const Process& proc = app_.process(pid);
    const int budget_left = fm_.k - in.guard.faults();
    // Recoveries this chain can actually use on this path.
    const int attempts_after_first =
        std::min(CopyRecovery::of(proc, copy).budget(), budget_left);

    Guard chain_guard = in.guard;
    int prev_vertex = -1;
    for (int a = 0; a <= attempts_after_first; ++a) {
      const bool is_conditional = a < attempts_after_first;
      FtcpgNode node;
      node.kind = is_conditional ? FtcpgNodeKind::kConditional
                                 : FtcpgNodeKind::kRegular;
      node.role = FtcpgNodeRole::kProcessExec;
      node.process = pid;
      node.copy = copy_index;
      node.attempt = a;
      node.guard = chain_guard;
      node.mapped_node = copy.node;
      node.label = proc.name + "^" + std::to_string(++copy_counter_[pid]);
      if (pa_.plan(pid).copy_count() > 1) {
        node.label = proc.name + "(" + std::to_string(copy_index + 1) + ")^" +
                     std::to_string(copy_counter_[pid]);
      }
      const int v = add_node(std::move(node));

      if (a == 0) {
        if (in.parents.empty() && prev_vertex < 0) {
          // Root process: no incoming edges.
        }
        for (int parent : in.parents) add_parent_edge(parent, v);
      } else {
        graph_.add_edge(prev_vertex, v, Literal{prev_vertex, true});
      }

      CompletionAlt comp;
      comp.vertex = v;
      comp.conditional = is_conditional;
      comp.guard = chain_guard;
      if (is_conditional) comp.guard.add(Literal{v, false});
      out.push_back(comp);

      if (is_conditional) chain_guard.add(Literal{v, true});
      prev_vertex = v;
    }
  }

  /// A message needs a bus transmission if any copy of the consumer lives on
  /// a different node than some copy of the producer.
  [[nodiscard]] bool message_needs_bus(MessageId mid,
                                       const ProcessPlan& src_plan) const {
    const Message& msg = app_.message(mid);
    const ProcessPlan& dst_plan = pa_.plan(msg.dst);
    for (const CopyPlan& s : src_plan.copies) {
      for (const CopyPlan& d : dst_plan.copies) {
        if (s.node != d.node) return true;
      }
    }
    return false;
  }

  const Application& app_;
  const PolicyAssignment& pa_;
  const FaultModel& fm_;
  const FtcpgBuildOptions& opts_;
  Ftcpg graph_;
  std::map<MessageId, std::vector<DeliveryAlt>> deliveries_;
  std::map<ProcessId, int> copy_counter_;
  std::map<MessageId, int> message_counter_;
  /// delivery vertex -> conditional execution vertex whose !F guards it
  std::map<int, int> conditional_sources_;
};

}  // namespace ftes::(anonymous)

Ftcpg build_ftcpg(const Application& app, const PolicyAssignment& assignment,
                  const FaultModel& model, const FtcpgBuildOptions& options) {
  assignment.validate(app, model);
  Builder builder(app, assignment, model, options);
  return builder.build();
}

}  // namespace ftes
