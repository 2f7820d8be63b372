// Reference implementation of the historical O(V^2) list scheduler:
// linear ready scans and a linear pending-transmission minimum search,
// ranked by critical paths on a copy-level Digraph.  The production
// scheduler (sched/list_scheduler.cpp) replaced the scans with per-node
// ready queues and a transmission heap, and the copy graph with a
// process-level rank pass; this reference pins the exact tie-breaking the
// queues must preserve, the commit index (`event`) stamped on every
// placement and transmission, the tie groups a checkpoint log must record
// (ReferenceTrace), and the ranks the pass must reproduce.
// Shared by the equivalence property test
// (tests/test_list_scheduler_incremental.cpp) and the heap-vs-scan
// micro-benchmarks (bench/micro_benchmarks.cpp) so the pinned behavior and
// the measured baseline cannot drift apart.  Not part of the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/recovery.h"
#include "graph/digraph.h"
#include "sched/list_scheduler.h"

namespace ftes::testing {

/// The historical copy-level precedence graph: one vertex per copy, in
/// ListSchedule::copies order, and an edge from every producer copy to
/// every consumer copy of each message.
inline Digraph reference_copy_graph(const Application& app,
                                    const PolicyAssignment& assignment) {
  std::map<std::pair<std::int32_t, int>, int> vert_of;
  for (int i = 0; i < app.process_count(); ++i) {
    for (int j = 0; j < assignment.plan(ProcessId{i}).copy_count(); ++j) {
      const int v = static_cast<int>(vert_of.size());
      vert_of[{i, j}] = v;
    }
  }
  Digraph g(static_cast<int>(vert_of.size()));
  for (const Message& m : app.messages()) {
    const ProcessPlan& sp = assignment.plan(m.src);
    const ProcessPlan& dp = assignment.plan(m.dst);
    for (int sj = 0; sj < sp.copy_count(); ++sj) {
      for (int dj = 0; dj < dp.copy_count(); ++dj) {
        g.add_edge(vert_of.at({m.src.get(), sj}), vert_of.at({m.dst.get(), dj}));
      }
    }
  }
  return g;
}

/// The historical partial critical path ranks: longest remaining path on
/// the copy graph, each copy weighing its fault-free duration plus the
/// worst-case bus duration of its process's heaviest outgoing message.
/// partial_critical_path_ranks (sched/list_scheduler.h) must reproduce it.
inline std::vector<Time> reference_copy_ranks(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment) {
  std::vector<CopyRef> refs;
  std::vector<NodeId> nodes;
  std::vector<Time> durations;
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    const ProcessPlan& plan = assignment.plan(pid);
    for (int j = 0; j < plan.copy_count(); ++j) {
      const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
      refs.push_back(CopyRef{pid, j});
      nodes.push_back(copy.node);
      durations.push_back(
          CopyRecovery::of(app.process(pid), copy).run_time(0));
    }
  }
  return reference_copy_graph(app, assignment).critical_path_from([&](int v) {
    const std::size_t i = static_cast<std::size_t>(v);
    Time comm = 0;
    for (MessageId mid : app.outputs(refs[i].process)) {
      comm = std::max(comm, arch.bus().worst_case_duration(
                                nodes[i], app.message(mid).size));
    }
    return durations[i] + comm;
  });
}

/// What the linear scan saw, in the shape a ScheduleCheckpointLog records
/// it: the start-time tie groups of its copy events (every copy event with
/// two or more ready copies at the winner's start; contenders ascending).
struct ReferenceTrace {
  std::vector<ScheduleCheckpointLog::StartTie> ties;
};

inline ListSchedule reference_list_schedule(const Application& app,
                                     const Architecture& arch,
                                     const PolicyAssignment& assignment,
                                     ReferenceTrace* trace = nullptr) {
  struct CopyVertex {
    CopyRef ref;
    NodeId node;
    Time duration = 0;
    Time release = 0;
  };
  std::vector<CopyVertex> verts;
  std::map<std::pair<std::int32_t, int>, int> vert_of;
  ListSchedule result;
  result.first_copy.assign(static_cast<std::size_t>(app.process_count()) + 1,
                           0);
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    const ProcessPlan& plan = assignment.plan(pid);
    result.first_copy[static_cast<std::size_t>(i) + 1] =
        result.first_copy[static_cast<std::size_t>(i)] + plan.copy_count();
    for (int j = 0; j < plan.copy_count(); ++j) {
      const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
      CopyVertex v;
      v.ref = CopyRef{pid, j};
      v.node = copy.node;
      v.duration = CopyRecovery::of(app.process(pid), copy).run_time(0);
      v.release = app.process(pid).release;
      vert_of[{pid.get(), j}] = static_cast<int>(verts.size());
      verts.push_back(v);
    }
  }

  const Digraph g = reference_copy_graph(app, assignment);
  const std::vector<Time> rank = reference_copy_ranks(app, arch, assignment);

  result.copies.resize(verts.size());
  result.node_order.resize(static_cast<std::size_t>(arch.node_count()));
  std::vector<Time> node_free(static_cast<std::size_t>(arch.node_count()), 0);
  Time bus_free = 0;
  std::vector<bool> placed(verts.size(), false);
  std::vector<int> deps_left(verts.size(), 0);
  for (std::size_t v = 0; v < verts.size(); ++v) {
    deps_left[v] = static_cast<int>(g.predecessors(static_cast<int>(v)).size());
  }
  std::vector<Time> data_ready(verts.size(), 0);

  struct PendingTx {
    Time ready;
    MessageId msg;
    int src_copy;
    NodeId sender;
  };
  std::vector<PendingTx> pending_tx;

  auto deliver = [&](const Message& m, Time delivery) {
    const ProcessPlan& dp = assignment.plan(m.dst);
    for (int dj = 0; dj < dp.copy_count(); ++dj) {
      const int dv = vert_of.at({m.dst.get(), dj});
      data_ready[static_cast<std::size_t>(dv)] =
          std::max(data_ready[static_cast<std::size_t>(dv)], delivery);
      --deps_left[static_cast<std::size_t>(dv)];
    }
  };

  const auto is_ready = [&](std::size_t v) {
    return !placed[v] && deps_left[v] == 0;
  };
  const auto start_of = [&](std::size_t v) {
    const CopyVertex& cv = verts[v];
    return std::max({data_ready[v], cv.release,
                     node_free[static_cast<std::size_t>(cv.node.get())]});
  };

  std::size_t remaining = verts.size();
  for (std::size_t event = 0; remaining > 0; ++event) {
    Time best_start = kTimeInfinity;
    int best_vertex = -1;
    for (std::size_t v = 0; v < verts.size(); ++v) {
      if (!is_ready(v)) continue;
      const Time start = start_of(v);
      if (start < best_start ||
          (start == best_start &&
           rank[static_cast<std::size_t>(best_vertex)] < rank[v])) {
        best_start = start;
        best_vertex = static_cast<int>(v);
      }
    }

    Time earliest_tx = kTimeInfinity;
    std::size_t tx_index = pending_tx.size();
    for (std::size_t t = 0; t < pending_tx.size(); ++t) {
      if (pending_tx[t].ready < earliest_tx ||
          (pending_tx[t].ready == earliest_tx && tx_index < pending_tx.size() &&
           pending_tx[t].msg < pending_tx[tx_index].msg)) {
        earliest_tx = pending_tx[t].ready;
        tx_index = t;
      }
    }

    if (tx_index < pending_tx.size() &&
        (best_vertex < 0 || earliest_tx <= best_start)) {
      const PendingTx tx = pending_tx[tx_index];
      pending_tx.erase(pending_tx.begin() +
                       static_cast<std::ptrdiff_t>(tx_index));
      const Message& m = app.message(tx.msg);
      const Time ready = std::max(tx.ready, bus_free);
      const Time start = arch.bus().next_slot_start(tx.sender, ready);
      const Time finish =
          arch.bus().transmission(tx.sender, ready, m.size).finish;
      bus_free = finish;
      result.bus_order.push_back(static_cast<int>(result.messages.size()));
      result.messages.push_back(ScheduledMessage{tx.msg, tx.src_copy, tx.sender,
                                                 static_cast<int>(event),
                                                 tx.ready, start, finish});
      deliver(m, finish);
      continue;
    }

    if (best_vertex < 0) {
      throw std::logic_error("reference scheduler deadlock");
    }
    if (trace) {
      ScheduleCheckpointLog::StartTie tie;
      tie.event = event;
      tie.winner = best_vertex;
      for (std::size_t v = 0; v < verts.size(); ++v) {
        if (is_ready(v) && start_of(v) == best_start) {
          tie.contenders.push_back(static_cast<int>(v));
        }
      }
      if (tie.contenders.size() >= 2) trace->ties.push_back(std::move(tie));
    }

    const std::size_t v = static_cast<std::size_t>(best_vertex);
    const CopyVertex& cv = verts[v];
    ScheduledCopy sc;
    sc.ref = cv.ref;
    sc.node = cv.node;
    sc.event = static_cast<int>(event);
    sc.start = best_start;
    sc.finish = best_start + cv.duration;
    result.copies[v] = sc;
    placed[v] = true;
    --remaining;
    node_free[static_cast<std::size_t>(cv.node.get())] = sc.finish;
    result.node_order[static_cast<std::size_t>(cv.node.get())].push_back(
        static_cast<int>(v));
    result.makespan = std::max(result.makespan, sc.finish);

    for (MessageId mid : app.outputs(cv.ref.process)) {
      const Message& m = app.message(mid);
      const ProcessPlan& dp = assignment.plan(m.dst);
      bool cross_node = false;
      for (const CopyPlan& d : dp.copies) {
        if (d.node != cv.node) cross_node = true;
      }
      if (cross_node) {
        pending_tx.push_back(PendingTx{sc.finish, mid, cv.ref.copy, cv.node});
      } else {
        deliver(m, sc.finish);
      }
    }
  }
  for (const ScheduledMessage& m : result.messages) {
    result.makespan = std::max(result.makespan, m.finish);
  }
  return result;
}

}  // namespace ftes::testing
