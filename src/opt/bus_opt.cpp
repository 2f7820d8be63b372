#include "opt/bus_opt.h"

#include <algorithm>
#include <vector>

#include "sched/wcsl.h"
#include "util/random.h"

namespace ftes {

namespace {

Time evaluate_with_bus(const Application& app, const Architecture& arch,
                       const TdmaBus& bus, const PolicyAssignment& pa,
                       const FaultModel& fm) {
  Architecture candidate = arch;
  candidate.set_bus(bus);
  return evaluate_wcsl(app, candidate, pa, fm).makespan;
}

}  // namespace

BusOptResult optimize_bus_access(const Application& app,
                                 const Architecture& arch,
                                 const PolicyAssignment& assignment,
                                 const FaultModel& model,
                                 const BusOptOptions& options) {
  Rng rng(options.seed);
  BusOptResult result;
  std::vector<TdmaSlot> slots = arch.bus().slots();
  const std::int64_t payload = arch.bus().slot_payload();

  auto build = [&](const std::vector<TdmaSlot>& s) {
    TdmaBus bus = TdmaBus::from_slots(s);
    bus.set_slot_payload(payload);
    return bus;
  };

  result.bus = build(slots);
  result.wcsl_before =
      evaluate_with_bus(app, arch, result.bus, assignment, model);
  result.wcsl_after = result.wcsl_before;
  result.evaluations = 1;

  for (int iter = 0; iter < options.iterations; ++iter) {
    std::vector<TdmaSlot> candidate = slots;
    if (slots.size() > 1 && rng.chance(0.5)) {
      // Swap two slots in the round.
      const std::size_t a = rng.index(candidate.size());
      const std::size_t b = rng.index(candidate.size());
      if (a == b) continue;
      std::swap(candidate[a], candidate[b]);
    } else {
      // Rescale one slot (halve or grow by ~50%).
      const std::size_t a = rng.index(candidate.size());
      Time next = rng.chance(0.5) ? candidate[a].length / 2
                                  : candidate[a].length + candidate[a].length / 2 + 1;
      next = std::clamp(next, kMinSlotLength, kMaxSlotLength);
      if (next == candidate[a].length) continue;
      candidate[a].length = next;
    }
    const TdmaBus bus = build(candidate);
    const Time wcsl = evaluate_with_bus(app, arch, bus, assignment, model);
    ++result.evaluations;
    if (wcsl < result.wcsl_after) {
      result.wcsl_after = wcsl;
      result.bus = bus;
      slots = std::move(candidate);
    }
  }
  return result;
}

}  // namespace ftes
