#include "arch/tdma_bus.h"

#include <cassert>
#include <stdexcept>

namespace ftes {

TdmaBus TdmaBus::uniform(int node_count, Time slot_length) {
  if (node_count <= 0) throw std::invalid_argument("bus needs >= 1 node");
  if (slot_length <= 0) throw std::invalid_argument("slot length must be > 0");
  std::vector<TdmaSlot> slots;
  slots.reserve(static_cast<std::size_t>(node_count));
  for (int i = 0; i < node_count; ++i) {
    slots.push_back(TdmaSlot{NodeId{i}, slot_length});
  }
  return from_slots(std::move(slots));
}

TdmaBus TdmaBus::from_slots(std::vector<TdmaSlot> slots) {
  if (slots.empty()) throw std::invalid_argument("empty TDMA round");
  TdmaBus bus;
  bus.slots_ = std::move(slots);
  bus.offsets_.reserve(bus.slots_.size());
  Time at = 0;
  for (std::size_t i = 0; i < bus.slots_.size(); ++i) {
    const TdmaSlot& s = bus.slots_[i];
    if (s.length <= 0) throw std::invalid_argument("slot length must be > 0");
    if (!s.owner.valid()) throw std::invalid_argument("slot without owner");
    bus.offsets_.push_back(at);
    at += s.length;
    const std::size_t owner = static_cast<std::size_t>(s.owner.get());
    if (bus.slots_of_.size() <= owner) bus.slots_of_.resize(owner + 1);
    bus.slots_of_[owner].push_back(i);
  }
  bus.round_length_ = at;
  return bus;
}

int TdmaBus::frames_needed(std::int64_t size) const {
  assert(slot_payload_ > 0);
  if (size <= 0) return 1;  // condition values and empty payloads: one frame
  return static_cast<int>((size + slot_payload_ - 1) / slot_payload_);
}

Time TdmaBus::slot_offset(std::size_t slot_index) const {
  assert(slot_index < offsets_.size());
  return offsets_[slot_index];
}

const std::vector<std::size_t>& TdmaBus::own_slots(NodeId sender) const {
  // Checked before any division: a default-constructed bus has no slots
  // and a zero round length.
  const std::size_t id = static_cast<std::size_t>(sender.get());
  if (!sender.valid() || id >= slots_of_.size() || slots_of_[id].empty()) {
    throw std::logic_error("sender owns no TDMA slot");
  }
  return slots_of_[id];
}

std::pair<std::size_t, Time> TdmaBus::next_own_slot(
    const std::vector<std::size_t>& own, Time ready) const {
  // The sender's first slot of the round containing `ready` that has not
  // begun yet, else its first slot of the next round.
  const Time round_begin = (ready / round_length_) * round_length_;
  for (std::size_t i : own) {
    if (round_begin + offsets_[i] >= ready) {
      return {i, round_begin + offsets_[i]};
    }
  }
  return {own.front(), round_begin + round_length_ + offsets_[own.front()]};
}

Time TdmaBus::next_slot_start(NodeId sender, Time ready) const {
  return next_own_slot(own_slots(sender), ready).second;
}

TdmaWindow TdmaBus::transmission(NodeId sender, Time ready,
                                 std::int64_t size) const {
  const std::vector<std::size_t>& own = own_slots(sender);
  const int frames = frames_needed(size);  // >= 1
  TdmaWindow window{0, ready};
  for (int f = 0; f < frames; ++f) {
    const auto [slot, start] = next_own_slot(own, window.finish);
    if (f == 0) window.start = start;
    window.finish = start + slots_[slot].length;
  }
  return window;
}

Time TdmaBus::worst_case_duration(NodeId sender, std::int64_t size) const {
  // Worst case: readiness occurs just after the sender's slot began, so we
  // wait almost a full round, then occupy `frames` rounds' worth of slots.
  // The frame length is that of the sender's last slot in the round.
  const Time slot_len = slots_[own_slots(sender).back()].length;
  const int frames = frames_needed(size);
  return round_length_ + (frames - 1) * round_length_ + slot_len;
}

}  // namespace ftes
