#include "sched/root_schedule.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "fault/recovery.h"
#include "fault/scenario.h"

namespace ftes {

RootSchedule build_root_schedule(const Application& app,
                                 const Architecture& arch,
                                 const PolicyAssignment& assignment,
                                 const FaultModel& model) {
  assignment.validate(app, model);
  const ListSchedule sched = list_schedule(app, arch, assignment);
  // Transparent timing law: pins must hold in every scenario and each
  // copy's slack must absorb all k faults locally.
  const WcslResult wcsl =
      worst_case_transparent(app, arch, assignment, model, sched);

  RootSchedule root;
  root.wcsl = wcsl.makespan;
  root.slots.reserve(sched.copies.size());
  for (std::size_t v = 0; v < sched.copies.size(); ++v) {
    RootSlot slot;
    slot.ref = sched.copies[v].ref;
    slot.node = sched.copies[v].node;
    slot.start = wcsl.copy_worst_start[v];
    slot.worst_finish = wcsl.copy_worst_finish[v];
    root.slots.push_back(slot);
  }
  // Slack: gap to the next pinned start in the node's static order.
  for (std::size_t n = 0; n < sched.node_order.size(); ++n) {
    const auto& order = sched.node_order[n];
    for (std::size_t i = 0; i < order.size(); ++i) {
      RootSlot& slot = root.slots[static_cast<std::size_t>(order[i])];
      const Time next =
          i + 1 < order.size()
              ? root.slots[static_cast<std::size_t>(order[i + 1])].start
              : wcsl.makespan;
      slot.slack = next - slot.worst_finish;
    }
  }

  // Messages: pinned at their worst-case ready times, serialized on the bus
  // in the static order (budget monotonicity keeps them disjoint).
  Time bus_free = 0;
  for (int m : sched.bus_order) {
    const ScheduledMessage& sm = sched.messages[static_cast<std::size_t>(m)];
    RootMessageSlot slot;
    slot.msg = sm.msg;
    slot.src_copy = sm.src_copy;
    slot.sender = sm.sender;
    slot.ready =
        std::max(wcsl.msg_worst_ready[static_cast<std::size_t>(m)], bus_free);
    slot.start = arch.bus().next_slot_start(slot.sender, slot.ready);
    slot.finish = arch.bus().transmission_finish(slot.sender, slot.ready,
                                                 app.message(sm.msg).size);
    bus_free = slot.finish;
    root.wcsl = std::max(root.wcsl, slot.finish);
    root.messages.push_back(slot);
  }
  return root;
}

std::string RootSchedule::to_text(const Application& app,
                                  const Architecture& arch) const {
  std::ostringstream out;
  out << "Root schedule (fully transparent recovery):\n";
  for (int n = 0; n < arch.node_count(); ++n) {
    out << "  " << arch.node(NodeId{n}).name << ":";
    std::vector<const RootSlot*> mine;
    for (const RootSlot& s : slots) {
      if (s.node == NodeId{n}) mine.push_back(&s);
    }
    std::sort(mine.begin(), mine.end(),
              [](const RootSlot* a, const RootSlot* b) {
                return a->start < b->start;
              });
    for (const RootSlot* s : mine) {
      out << "  " << app.process(s->ref.process).name;
      if (s->ref.copy > 0) out << "(" << s->ref.copy + 1 << ")";
      out << "@" << s->start << "+slack" << s->slack;
    }
    out << "\n";
  }
  out << "  bus:";
  for (const RootMessageSlot& m : messages) {
    out << "  " << app.message(m.msg).name << "@" << m.start;
  }
  out << "\n  WCSL = " << wcsl << ", " << total_entries() << " entries\n";
  return out.str();
}

RootValidation validate_root_schedule(const Application& app,
                                      const Architecture& arch,
                                      const PolicyAssignment& assignment,
                                      const FaultModel& model,
                                      const RootSchedule& root) {
  (void)arch;
  RootValidation result;
  auto fail = [&](std::string what) {
    result.ok = false;
    result.violations.push_back(std::move(what));
  };

  // Node orders by pinned start.
  // lint: cold-path -- one-shot root-schedule validation, not move eval
  std::map<std::int32_t, std::vector<const RootSlot*>> per_node;
  for (const RootSlot& s : root.slots) {
    per_node[s.node.get()].push_back(&s);
  }
  for (auto& [node, slots] : per_node) {
    std::sort(slots.begin(), slots.end(),
              [](const RootSlot* a, const RootSlot* b) {
                return a->start < b->start;
              });
  }
  // lint: cold-path -- one-shot root-schedule validation, not move eval
  std::map<std::pair<std::int32_t, int>, const RootSlot*> slot_of;
  for (const RootSlot& s : root.slots) {
    slot_of[{s.ref.process.get(), s.ref.copy}] = &s;
  }
  // Pinned message slots by (msg, src copy).
  // lint: cold-path -- one-shot root-schedule validation, not move eval
  std::map<std::pair<std::int32_t, int>, const RootMessageSlot*> msg_slot;
  for (const RootMessageSlot& m : root.messages) {
    msg_slot[{m.msg.get(), m.src_copy}] = &m;
  }

  // Scenario-independent: remote consumers must be pinned after the
  // transmissions that feed them.
  for (const RootMessageSlot& m : root.messages) {
    const Message& msg = app.message(m.msg);
    const ProcessPlan& dp = assignment.plan(msg.dst);
    for (int dj = 0; dj < dp.copy_count(); ++dj) {
      const RootSlot* consumer = slot_of.at({msg.dst.get(), dj});
      if (consumer->node != m.sender && consumer->start < m.finish) {
        fail("consumer " + app.process(msg.dst).name +
             " pinned before transmission of " + msg.name + " completes");
      }
    }
  }

  for (const FaultScenario& scenario :
       enumerate_scenarios(app, assignment, model.k)) {
    Time completion = 0;
    for (const auto& [node, slots] : per_node) {
      for (std::size_t i = 0; i < slots.size(); ++i) {
        const RootSlot& s = *slots[i];
        const Process& proc = app.process(s.ref.process);
        const CopyRecovery law = CopyRecovery::of(
            proc, assignment.plan(s.ref.process)
                      .copies[static_cast<std::size_t>(s.ref.copy)]);
        const int f = scenario.faults_on(s.ref);
        const bool survives = law.survives(f);
        const Time end = s.start + law.run_time(f);
        if (survives) {
          completion = std::max(completion, end);
          if (proc.local_deadline && end > *proc.local_deadline) {
            fail("local deadline of " + proc.name + " missed in " +
                 scenario.to_string(app));
          }
        }
        if (i + 1 < slots.size() && end > slots[i + 1]->start) {
          fail("recovery of " + proc.name + " overruns the slack before " +
               app.process(slots[i + 1]->ref.process).name + " in " +
               scenario.to_string(app));
        }
        // Data readiness of pinned transmissions from this copy.
        if (survives) {
          for (MessageId mid : app.outputs(s.ref.process)) {
            auto it = msg_slot.find({mid.get(), s.ref.copy});
            if (it != msg_slot.end() && end > it->second->ready) {
              fail("message " + app.message(mid).name +
                   " not ready by its pinned slot in " +
                   scenario.to_string(app));
            }
          }
        }
      }
    }
    if (completion > app.deadline()) {
      fail("deadline missed in " + scenario.to_string(app));
    }
  }

  // Transparency by construction: every copy has exactly one slot.
  for (const RootSlot& s : root.slots) {
    if (!slot_of.count({s.ref.process.get(), s.ref.copy})) {
      fail("internal: missing slot");
    }
  }
  return result;
}

}  // namespace ftes
