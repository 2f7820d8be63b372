// Application model of DATE'08 Section 4.
//
// A (virtual) application A is a directed acyclic graph G(V, E).  Each node
// is a non-preemptable process with per-node worst-case execution times
// (absence of a WCET entry == mapping restriction, the "X" of the paper's
// Fig. 3c).  Each edge is a message; messages between processes mapped to
// the same node cost nothing extra (folded into the sender's WCET), between
// different nodes they occupy the TDMA bus.
//
// Per-process fault-tolerance overheads: error detection alpha, recovery mu,
// checkpointing chi.  Transparency: a process or message may be declared
// `frozen` (T(v) = frozen) which forces one start time across all fault
// scenarios.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "fault/policy_kind.h"
#include "util/time_types.h"

namespace ftes {

class Architecture;

/// Soft real-time specification ([17]: soft processes contribute a utility
/// that decays with completion time; they may be dropped entirely).  A
/// process without a SoftSpec is hard: it must complete, on time, in every
/// fault scenario.
struct SoftSpec {
  double utility = 1.0;   ///< U0: utility when finishing by soft_deadline
  Time soft_deadline = 0; ///< full utility up to here
  Time window = 1;        ///< linear decay to zero over the window after it
};

struct Process {
  std::string name;

  /// WCET per node; a node missing from the map is a mapping restriction.
  std::unordered_map<NodeId, Time> wcet;

  Time alpha = 0;  ///< error-detection overhead (per execution segment)
  Time mu = 0;     ///< recovery overhead (restore checkpoint / inputs)
  Time chi = 0;    ///< checkpointing overhead (save one checkpoint)

  bool frozen = false;  ///< transparency requirement T(P) = frozen

  /// Designer-fixed mapping (e.g. close to a sensor); optimizers must not
  /// move such processes.
  std::optional<NodeId> fixed_mapping;

  /// Optional local deadline d_local (absolute, within the cycle).
  std::optional<Time> local_deadline;

  /// Soft process marker ([17]); absent == hard process.
  std::optional<SoftSpec> soft;

  /// Designer-fixed fault-tolerance policy kind (Section 6: criticality,
  /// legacy or certification reasons may dictate P(Pi) up front).  The
  /// optimizers keep the kind and only tune its parameters; validation
  /// rejects assignments that override it.
  std::optional<PolicyKind> fixed_policy;

  /// Release offset within the merged hyperperiod (0 for single-period
  /// applications; set by merge() for later instances of shorter-period
  /// application graphs).
  Time release = 0;

  [[nodiscard]] bool can_run_on(NodeId n) const { return wcet.count(n) > 0; }
  [[nodiscard]] Time wcet_on(NodeId n) const;
};

struct Message {
  std::string name;
  ProcessId src;
  ProcessId dst;
  std::int64_t size = 1;  ///< worst-case payload (abstract units)
  bool frozen = false;    ///< transparency requirement T(m) = frozen
};

/// The merged application A = G(V, E) with a global hard deadline D.
class Application {
 public:
  Application() = default;

  ProcessId add_process(Process p);
  MessageId add_message(Message m);

  /// Convenience used by fixtures: process with identical overheads and an
  /// explicit WCET table {node -> wcet}.
  ProcessId add_process(std::string name,
                        std::vector<std::pair<NodeId, Time>> wcets,
                        Time alpha, Time mu, Time chi);

  /// Convenience edge with size 1.
  MessageId connect(ProcessId src, ProcessId dst, std::string name = {},
                    std::int64_t size = 1);

  void set_deadline(Time d) { deadline_ = d; }
  [[nodiscard]] Time deadline() const { return deadline_; }

  void set_period(Time t) { period_ = t; }
  [[nodiscard]] Time period() const { return period_; }

  [[nodiscard]] const std::vector<Process>& processes() const {
    return processes_;
  }
  [[nodiscard]] const std::vector<Message>& messages() const {
    return messages_;
  }
  /// Per-id accessors; an id out of range throws std::out_of_range.  They
  /// sit in the list scheduler's inner loops, so they are inline.
  [[nodiscard]] Process& process(ProcessId id) {
    return const_cast<Process&>(std::as_const(*this).process(id));
  }
  [[nodiscard]] const Process& process(ProcessId id) const {
    if (!id.valid() || id.get() >= process_count()) {
      throw std::out_of_range("invalid ProcessId");
    }
    return processes_[static_cast<std::size_t>(id.get())];
  }
  [[nodiscard]] Message& message(MessageId id) {
    return const_cast<Message&>(std::as_const(*this).message(id));
  }
  [[nodiscard]] const Message& message(MessageId id) const {
    if (!id.valid() || id.get() >= message_count()) {
      throw std::out_of_range("invalid MessageId");
    }
    return messages_[static_cast<std::size_t>(id.get())];
  }
  [[nodiscard]] int process_count() const {
    return static_cast<int>(processes_.size());
  }
  [[nodiscard]] int message_count() const {
    return static_cast<int>(messages_.size());
  }

  /// Incoming / outgoing message ids of a process (edge adjacency).
  [[nodiscard]] const std::vector<MessageId>& inputs(ProcessId p) const {
    return in_edges_.at(static_cast<std::size_t>(p.get()));
  }
  [[nodiscard]] const std::vector<MessageId>& outputs(ProcessId p) const {
    return out_edges_.at(static_cast<std::size_t>(p.get()));
  }

  /// Predecessor / successor process ids (deduplicated, stable order).
  [[nodiscard]] std::vector<ProcessId> predecessors(ProcessId p) const;
  [[nodiscard]] std::vector<ProcessId> successors(ProcessId p) const;

  /// Topological order of processes; throws std::invalid_argument if the
  /// graph has a cycle.
  [[nodiscard]] std::vector<ProcessId> topological_order() const;

  /// Validates the model against an architecture: acyclic, every process
  /// runs on >= 1 node, fixed mappings respect restrictions, deadline > 0.
  /// Throws std::invalid_argument with a precise message on violation.
  void validate(const Architecture& arch) const;

 private:
  std::vector<Process> processes_;
  std::vector<Message> messages_;
  std::vector<std::vector<MessageId>> in_edges_;
  std::vector<std::vector<MessageId>> out_edges_;
  Time deadline_ = kTimeInfinity;
  Time period_ = 0;
};

}  // namespace ftes
