// Tests of the TDMA/TTP bus model (Section 2).
#include "arch/tdma_bus.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "arch/architecture.h"

namespace ftes {
namespace {

TEST(TdmaBus, UniformRoundLayout) {
  const TdmaBus bus = TdmaBus::uniform(3, 10);
  EXPECT_EQ(bus.round_length(), 30);
  ASSERT_EQ(bus.slots().size(), 3u);
  EXPECT_EQ(bus.slot_offset(0), 0);
  EXPECT_EQ(bus.slot_offset(1), 10);
  EXPECT_EQ(bus.slot_offset(2), 20);
}

TEST(TdmaBus, RejectsDegenerateConfigs) {
  EXPECT_THROW((void)TdmaBus::uniform(0, 10), std::invalid_argument);
  EXPECT_THROW((void)TdmaBus::uniform(2, 0), std::invalid_argument);
  EXPECT_THROW((void)TdmaBus::from_slots({}), std::invalid_argument);
}

TEST(TdmaBus, NextSlotStartWaitsForOwnSlot) {
  const TdmaBus bus = TdmaBus::uniform(2, 10);  // N1: [0,10), N2: [10,20)
  const NodeId n1{0}, n2{1};
  EXPECT_EQ(bus.next_slot_start(n1, 0), 0);
  EXPECT_EQ(bus.next_slot_start(n1, 1), 20);   // missed its slot start
  EXPECT_EQ(bus.next_slot_start(n2, 0), 10);
  EXPECT_EQ(bus.next_slot_start(n2, 10), 10);
  EXPECT_EQ(bus.next_slot_start(n2, 11), 30);
  EXPECT_EQ(bus.next_slot_start(n1, 39), 40);
}

TEST(TdmaBus, TransmissionFinishSingleFrame) {
  const TdmaBus bus = TdmaBus::uniform(2, 10);
  EXPECT_EQ(bus.transmission_finish(NodeId{0}, 0, 1), 10);
  EXPECT_EQ(bus.transmission_finish(NodeId{1}, 0, 1), 20);
}

TEST(TdmaBus, MultiFrameMessagesSpanRounds) {
  TdmaBus bus = TdmaBus::uniform(2, 10);
  bus.set_slot_payload(4);
  EXPECT_EQ(bus.frames_needed(4), 1);
  EXPECT_EQ(bus.frames_needed(5), 2);
  // Two frames from N1: slots [0,10) and [20,30).
  EXPECT_EQ(bus.transmission_finish(NodeId{0}, 0, 5), 30);
}

TEST(TdmaBus, WorstCaseDurationBoundsAnyReadyTime) {
  TdmaBus bus = TdmaBus::uniform(3, 7);
  bus.set_slot_payload(2);
  for (NodeId sender : {NodeId{0}, NodeId{1}, NodeId{2}}) {
    for (std::int64_t size : {1, 2, 3, 5}) {
      const Time bound = bus.worst_case_duration(sender, size);
      for (Time ready = 0; ready < 2 * bus.round_length(); ++ready) {
        const Time latency =
            bus.transmission_finish(sender, ready, size) - ready;
        EXPECT_LE(latency, bound)
            << "sender=" << sender.get() << " size=" << size
            << " ready=" << ready;
      }
    }
  }
}

TEST(TdmaBus, HeterogeneousSlotLengths) {
  const TdmaBus bus = TdmaBus::from_slots(
      {TdmaSlot{NodeId{0}, 5}, TdmaSlot{NodeId{1}, 15}, TdmaSlot{NodeId{0}, 5}});
  EXPECT_EQ(bus.round_length(), 25);
  // N1 owns two slots per round: at 0 and at 20.
  EXPECT_EQ(bus.next_slot_start(NodeId{0}, 1), 20);
  EXPECT_EQ(bus.next_slot_start(NodeId{0}, 21), 25);
}

TEST(TdmaBus, NodeOwningTwoSlotsOfDifferentLengthsMatchesATickScan) {
  // N1 owns a 5- and an 8-tick slot; N3 owns no slot and N5's id is past
  // every owner.
  TdmaBus bus = TdmaBus::from_slots(
      {TdmaSlot{NodeId{0}, 5}, TdmaSlot{NodeId{1}, 15},
       TdmaSlot{NodeId{0}, 8}, TdmaSlot{NodeId{3}, 6}});
  bus.set_slot_payload(2);
  const Time round = bus.round_length();
  ASSERT_EQ(round, 34);
  // The length of the sender's slot that starts at tick t, or 0.
  const auto slot_at = [&](NodeId sender, Time t) -> Time {
    for (std::size_t i = 0; i < bus.slots().size(); ++i) {
      if (bus.slots()[i].owner == sender && bus.slot_offset(i) == t % round) {
        return bus.slots()[i].length;
      }
    }
    return 0;
  };
  const auto scan_start = [&](NodeId sender, Time ready) {
    Time t = ready;
    while (slot_at(sender, t) == 0) ++t;
    return t;
  };
  for (NodeId sender : {NodeId{0}, NodeId{1}, NodeId{3}}) {
    for (Time ready = 0; ready < 2 * round; ++ready) {
      EXPECT_EQ(bus.next_slot_start(sender, ready), scan_start(sender, ready))
          << "sender=" << sender.get() << " ready=" << ready;
      for (std::int64_t size : {1, 2, 3, 4, 5, 6}) {  // 1-3 frames
        Time finish = ready;
        for (int f = 0; f < bus.frames_needed(size); ++f) {
          const Time start = scan_start(sender, finish);
          finish = start + slot_at(sender, start);
        }
        EXPECT_EQ(bus.transmission_finish(sender, ready, size), finish)
            << "sender=" << sender.get() << " ready=" << ready
            << " size=" << size;
        EXPECT_LE(finish - ready, bus.worst_case_duration(sender, size))
            << "sender=" << sender.get() << " ready=" << ready
            << " size=" << size;
      }
    }
  }
  // The bound waits a round per frame plus the sender's last slot.
  EXPECT_EQ(bus.worst_case_duration(NodeId{0}, 5), 3 * round + 8);

  const auto expect_no_slot = [](const TdmaBus& b, NodeId sender) {
    EXPECT_THROW((void)b.next_slot_start(sender, 3), std::logic_error)
        << sender.get();
    EXPECT_THROW((void)b.transmission_finish(sender, 3, 1), std::logic_error)
        << sender.get();
    EXPECT_THROW((void)b.worst_case_duration(sender, 1), std::logic_error)
        << sender.get();
  };
  expect_no_slot(bus, NodeId{2});
  expect_no_slot(bus, NodeId{4});
  expect_no_slot(bus, NodeId{-1});
  expect_no_slot(TdmaBus{}, NodeId{0});  // zero round: throw, not divide
}

TEST(Architecture, HomogeneousFactory) {
  const Architecture arch = Architecture::homogeneous(4, 5);
  EXPECT_EQ(arch.node_count(), 4);
  EXPECT_EQ(arch.node(NodeId{0}).name, "N1");
  EXPECT_EQ(arch.node(NodeId{3}).name, "N4");
  EXPECT_EQ(arch.bus().round_length(), 20);
  EXPECT_THROW((void)arch.node(NodeId{4}), std::out_of_range);
}

}  // namespace
}  // namespace ftes
