// Tests of the TDMA bus access optimization ([8]).
#include "opt/bus_opt.h"

#include <gtest/gtest.h>

#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "sched/wcsl.h"

namespace ftes {
namespace {

struct BusFixture {
  Application app;
  Architecture arch;
  PolicyAssignment pa;
  FaultModel fm{2};
};

BusFixture make_fixture(std::uint64_t seed) {
  TaskGenParams params;
  params.process_count = 15;
  params.node_count = 3;
  params.slot_length = 8;
  Rng rng(seed);
  BusFixture f{generate_application(params, rng),
               generate_architecture(params), PolicyAssignment{}, FaultModel{2}};
  f.pa = greedy_initial(f.app, f.arch, f.fm, PolicySpace::kReexecutionOnly, 1);
  return f;
}

TEST(BusOpt, NeverWorseThanInitialBus) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    BusFixture f = make_fixture(seed);
    BusOptOptions opts;
    opts.iterations = 60;
    opts.seed = seed;
    const BusOptResult r =
        optimize_bus_access(f.app, f.arch, f.pa, f.fm, opts);
    EXPECT_LE(r.wcsl_after, r.wcsl_before) << "seed " << seed;
  }
}

TEST(BusOpt, ResultBusIsConsistent) {
  BusFixture f = make_fixture(7);
  BusOptOptions opts;
  opts.iterations = 60;
  const BusOptResult r = optimize_bus_access(f.app, f.arch, f.pa, f.fm, opts);
  // Every node still owns at least one slot.
  for (NodeId n : f.arch.node_ids()) {
    bool owns = false;
    for (const TdmaSlot& s : r.bus.slots()) {
      if (s.owner == n) owns = true;
    }
    EXPECT_TRUE(owns) << "node " << n.get();
  }
  // Installing the tuned bus reproduces the reported WCSL.
  Architecture tuned = f.arch;
  tuned.set_bus(r.bus);
  EXPECT_EQ(evaluate_wcsl(f.app, tuned, f.pa, f.fm).makespan, r.wcsl_after);
}

TEST(BusOpt, SlotLengthsStayInBounds) {
  BusFixture f = make_fixture(9);
  BusOptOptions opts;
  opts.iterations = 80;
  const BusOptResult r = optimize_bus_access(f.app, f.arch, f.pa, f.fm, opts);
  for (const TdmaSlot& s : r.bus.slots()) {
    EXPECT_GE(s.length, kMinSlotLength);
    EXPECT_LE(s.length, kMaxSlotLength);
  }
}

TEST(BusOpt, ZeroIterationsIsIdentity) {
  BusFixture f = make_fixture(11);
  BusOptOptions opts;
  opts.iterations = 0;
  const BusOptResult r = optimize_bus_access(f.app, f.arch, f.pa, f.fm, opts);
  EXPECT_EQ(r.wcsl_after, r.wcsl_before);
  EXPECT_EQ(r.bus.slots().size(), f.arch.bus().slots().size());
}

}  // namespace
}  // namespace ftes
