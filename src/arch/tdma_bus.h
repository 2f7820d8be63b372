// TDMA broadcast bus in the style of the Time-Triggered Protocol (TTP),
// the communication substrate of DATE'08 Section 2.
//
// Time on the bus is divided into rounds; a round is a fixed sequence of
// slots, one per node (a node may own several slots if the designer assigns
// them).  A node may start transmitting a frame only at the beginning of one
// of its own slots, and a frame must fit into one slot.  Condition values
// (Section 5.2 of the paper) travel as one-slot broadcast frames.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/time_types.h"

namespace ftes {

/// One slot of the TDMA round.
struct TdmaSlot {
  NodeId owner;      ///< node allowed to transmit in this slot
  Time length = 0;   ///< slot duration in ticks
};

class TdmaBus {
 public:
  TdmaBus() = default;

  /// Builds a bus whose round contains exactly one slot per node, each of
  /// the given length, in node-id order.  This is the configuration used in
  /// all shipped experiments.
  static TdmaBus uniform(int node_count, Time slot_length);

  /// Builds a bus from an explicit slot sequence (round layout).
  static TdmaBus from_slots(std::vector<TdmaSlot> slots);

  [[nodiscard]] const std::vector<TdmaSlot>& slots() const { return slots_; }
  [[nodiscard]] Time round_length() const { return round_length_; }

  /// Bytes a slot can carry are abstracted away: a message whose worst-case
  /// size fits the protocol occupies exactly one slot of its sender, as in
  /// TTP.  Larger payloads occupy ceil(size/slot_payload) consecutive rounds.
  /// `slot_payload` is the abstract per-slot capacity (same unit as size).
  void set_slot_payload(std::int64_t payload) { slot_payload_ = payload; }
  [[nodiscard]] std::int64_t slot_payload() const { return slot_payload_; }

  /// Number of frames (slots of the sender) needed for `size` payload units.
  [[nodiscard]] int frames_needed(std::int64_t size) const;

  // The three timing functions below scan only the sender's own slots and
  // throw std::logic_error("sender owns no TDMA slot") when it owns none
  // (including a negative id or one past every owner).

  /// Earliest time >= `ready` at which `sender` may begin transmitting,
  /// i.e. the start of the sender's next slot.  O(slots of the sender).
  [[nodiscard]] Time next_slot_start(NodeId sender, Time ready) const;

  /// Completion time of a transmission of `size` payload units by `sender`
  /// that becomes ready at `ready`: the end of the last slot used.
  [[nodiscard]] Time transmission_finish(NodeId sender, Time ready,
                                         std::int64_t size) const;

  /// Upper bound on (finish - ready) for any ready time: worst-case wait
  /// for the sender's slot plus the frames themselves.  Used by the
  /// conservative worst-case schedule length DP (DESIGN.md Section 4).
  [[nodiscard]] Time worst_case_duration(NodeId sender,
                                         std::int64_t size) const;

  /// Start time of slot `slot_index` within the round beginning at 0.
  [[nodiscard]] Time slot_offset(std::size_t slot_index) const;

 private:
  /// The indices of `sender`'s slots in round order; throws when empty.
  [[nodiscard]] const std::vector<std::size_t>& own_slots(NodeId sender) const;
  /// Index of the sender's first slot (of `own`) that starts at or after
  /// `ready`, and that start.
  [[nodiscard]] std::pair<std::size_t, Time> next_own_slot(
      const std::vector<std::size_t>& own, Time ready) const;

  std::vector<TdmaSlot> slots_;
  std::vector<Time> offsets_;  ///< prefix sums of slot lengths
  std::vector<std::vector<std::size_t>> slots_of_;  ///< per node id
  Time round_length_ = 0;
  std::int64_t slot_payload_ = 1;
};

}  // namespace ftes
