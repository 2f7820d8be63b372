// Reference implementation of the historical WCSL analysis: the
// resource-augmented schedule DAG built as a vector-of-vectors Digraph,
// Kahn-sorted per analysis, with the budgeted longest-path DP over it.  The
// production analysis (sched/wcsl.cpp) builds the same DAG as flat CSR
// arrays with its topological order computed once; this reference pins the
// predecessor multisets, weights and results the flat DAG must reproduce.
// Used by the equivalence tests (tests/test_wcsl.cpp,
// tests/test_eval_context.cpp).  Not part of the library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/recovery.h"
#include "graph/digraph.h"
#include "sched/wcsl.h"

namespace ftes::testing {

/// The historical WcslDag: same vertices, edges and weights as
/// ftes::WcslDag, stored as a Digraph and per-vertex weight vectors.
struct ReferenceWcslDag {
  Digraph g;
  int copy_count = 0;
  int msg_count = 0;
  std::vector<std::vector<Time>> weight;
  std::vector<Time> release;

  [[nodiscard]] int msg_vertex(int m) const { return copy_count + m; }
};

inline ReferenceWcslDag reference_build_wcsl_dag(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, int k, const ListSchedule& schedule) {
  ReferenceWcslDag a;
  a.copy_count = static_cast<int>(schedule.copies.size());
  a.msg_count = static_cast<int>(schedule.messages.size());
  const int total = a.copy_count + a.msg_count;
  a.g = Digraph(total);

  // Copy vertices are prefix-indexed by construction of the list scheduler
  // (copy j of process p sits at schedule.first_copy[p] + j), so the
  // (process, copy) -> vertex lookup is pure arithmetic; this builder runs
  // once per objective evaluation, so no maps and no scan here.
  std::vector<int> first_copy(
      static_cast<std::size_t>(app.process_count()) + 1, 0);
  for (int p = 0; p < app.process_count(); ++p) {
    first_copy[static_cast<std::size_t>(p) + 1] =
        first_copy[static_cast<std::size_t>(p)] +
        assignment.plan(ProcessId{p}).copy_count();
  }
  const auto cv = [&](std::int32_t process, int copy) {
    return first_copy[static_cast<std::size_t>(process)] + copy;
  };

  // Data edges.  Cross-node messages go through their transmission vertex;
  // co-located flow is a direct edge.  Same flat scheme for the
  // (message, source copy) -> transmission lookup.
  std::vector<int> first_tx(static_cast<std::size_t>(app.message_count()) + 1,
                            0);
  for (int mi = 0; mi < app.message_count(); ++mi) {
    first_tx[static_cast<std::size_t>(mi) + 1] =
        first_tx[static_cast<std::size_t>(mi)] +
        assignment.plan(app.message(MessageId{mi}).src).copy_count();
  }
  std::vector<int> tx_of(
      static_cast<std::size_t>(first_tx[static_cast<std::size_t>(
          app.message_count())]),
      -1);
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    tx_of[static_cast<std::size_t>(
        first_tx[static_cast<std::size_t>(sm.msg.get())] + sm.src_copy)] = m;
    a.g.add_edge(cv(app.message(sm.msg).src.get(), sm.src_copy),
                 a.msg_vertex(m));
  }
  for (int mi = 0; mi < app.message_count(); ++mi) {
    const Message& msg = app.message(MessageId{mi});
    const ProcessPlan& sp = assignment.plan(msg.src);
    const ProcessPlan& dp = assignment.plan(msg.dst);
    for (int sj = 0; sj < sp.copy_count(); ++sj) {
      const int tx = tx_of[static_cast<std::size_t>(
          first_tx[static_cast<std::size_t>(mi)] + sj)];
      for (int dj = 0; dj < dp.copy_count(); ++dj) {
        const int dst_v = cv(msg.dst.get(), dj);
        if (tx >= 0) {
          a.g.add_edge(a.msg_vertex(tx), dst_v);
        } else {
          a.g.add_edge(cv(msg.src.get(), sj), dst_v);
        }
      }
    }
  }

  // Resource edges: static order on each node and on the bus.
  for (const auto& order : schedule.node_order) {
    for (std::size_t i = 1; i < order.size(); ++i) {
      a.g.add_edge(order[i - 1], order[i]);
    }
  }
  for (std::size_t i = 1; i < schedule.bus_order.size(); ++i) {
    a.g.add_edge(a.msg_vertex(schedule.bus_order[i - 1]),
                 a.msg_vertex(schedule.bus_order[i]));
  }

  // Per-vertex weight tables w_v(f), f = 0..k.
  a.weight.assign(static_cast<std::size_t>(total),
                  std::vector<Time>(static_cast<std::size_t>(k) + 1, 0));
  a.release.assign(static_cast<std::size_t>(total), 0);
  for (int i = 0; i < a.copy_count; ++i) {
    const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(i)];
    const Process& proc = app.process(sc.ref.process);
    const CopyPlan& cp = assignment.plan(sc.ref.process)
                             .copies.at(static_cast<std::size_t>(sc.ref.copy));
    RecoveryParams params{proc.wcet_on(sc.node), proc.alpha, proc.mu,
                          proc.chi};
    a.release[static_cast<std::size_t>(i)] = proc.release;
    for (int f = 0; f <= k; ++f) {
      Time w;
      if (cp.checkpoints >= 1) {
        w = checkpointed_exec_time(params, cp.checkpoints,
                                   std::min(f, cp.recoveries));
      } else {
        w = replica_exec_time(params);
      }
      a.weight[static_cast<std::size_t>(i)][static_cast<std::size_t>(f)] = w;
    }
  }
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    const Time w =
        arch.bus().worst_case_duration(sm.sender, app.message(sm.msg).size);
    for (int f = 0; f <= k; ++f) {
      a.weight[static_cast<std::size_t>(a.msg_vertex(m))]
              [static_cast<std::size_t>(f)] = w;
    }
  }
  return a;
}

inline Time reference_wcsl_dp_row(const ReferenceWcslDag& dag, int v,
                                  const std::vector<std::vector<Time>>& L,
                                  int k, std::vector<Time>& row) {
  // best_in[b] = max over predecessors p of L(p, b); nondecreasing in b by
  // construction of L.  Faults spent on a transmission never help the
  // adversary (constant weight), so the DP naturally assigns f = 0 there.
  std::vector<Time> best_in(static_cast<std::size_t>(k) + 1, 0);
  for (int p : dag.g.predecessors(v)) {
    for (int b = 0; b <= k; ++b) {
      best_in[static_cast<std::size_t>(b)] = std::max(
          best_in[static_cast<std::size_t>(b)],
          L[static_cast<std::size_t>(p)][static_cast<std::size_t>(b)]);
    }
  }
  row.assign(static_cast<std::size_t>(k) + 1, 0);
  for (int b = 0; b <= k; ++b) {
    Time best = 0;
    for (int f = 0; f <= b; ++f) {
      const Time start =
          std::max(dag.release[static_cast<std::size_t>(v)],
                   best_in[static_cast<std::size_t>(b - f)]);
      best = std::max(best, start + dag.weight[static_cast<std::size_t>(v)]
                                              [static_cast<std::size_t>(f)]);
    }
    row[static_cast<std::size_t>(b)] = best;
  }
  return best_in[static_cast<std::size_t>(k)];
}

inline void reference_fill_result_vertex(WcslResult& result,
                                         const ListSchedule& schedule,
                                         const ReferenceWcslDag& a, int v,
                                         Time worst_start, Time worst_finish) {
  result.makespan = std::max(result.makespan, worst_finish);
  if (v < a.copy_count) {
    const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(v)];
    auto& pf =
        result.process_finish[static_cast<std::size_t>(sc.ref.process.get())];
    pf = std::max(pf, worst_finish);
    result.copy_worst_start[static_cast<std::size_t>(v)] = worst_start;
    result.copy_worst_finish[static_cast<std::size_t>(v)] = worst_finish;
  } else {
    result.msg_worst_ready[static_cast<std::size_t>(v - a.copy_count)] =
        worst_start;
  }
}

inline WcslResult reference_make_result(const Application& app,
                                        const ReferenceWcslDag& a) {
  WcslResult result;
  result.process_finish.assign(static_cast<std::size_t>(app.process_count()),
                               0);
  result.copy_worst_start.assign(static_cast<std::size_t>(a.copy_count), 0);
  result.copy_worst_finish.assign(static_cast<std::size_t>(a.copy_count), 0);
  result.msg_worst_ready.assign(static_cast<std::size_t>(a.msg_count), 0);
  return result;
}

inline WcslResult reference_worst_case_schedule_length(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, const FaultModel& model,
    const ListSchedule& schedule) {
  model.validate();
  const int k = model.k;
  const ReferenceWcslDag a =
      reference_build_wcsl_dag(app, arch, assignment, k, schedule);
  const int total = a.g.vertex_count();

  // Budgeted longest-path DP in topological order (one
  // reference_wcsl_dp_row call per vertex).
  std::vector<std::vector<Time>> L(static_cast<std::size_t>(total));
  WcslResult result = reference_make_result(app, a);

  for (int v : a.g.topological_order()) {
    const Time in_k =
        reference_wcsl_dp_row(a, v, L, k, L[static_cast<std::size_t>(v)]);
    const Time worst =
        L[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    const Time worst_start =
        std::max(a.release[static_cast<std::size_t>(v)], in_k);
    reference_fill_result_vertex(result, schedule, a, v, worst_start, worst);
  }
  return result;
}

inline WcslResult reference_worst_case_transparent(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment, const FaultModel& model,
    const ListSchedule& schedule) {
  model.validate();
  const int k = model.k;
  const ReferenceWcslDag a =
      reference_build_wcsl_dag(app, arch, assignment, k, schedule);
  const int total = a.g.vertex_count();

  // Transparent (root-schedule) analysis: the start of every vertex must
  // hold in *every* scenario, and every vertex must be able to absorb all k
  // faults locally inside its slack.  Budgets therefore do not split along
  // a path: plain longest path with full-k weights.
  std::vector<Time> start(static_cast<std::size_t>(total), 0);
  std::vector<Time> finish(static_cast<std::size_t>(total), 0);
  WcslResult result = reference_make_result(app, a);

  for (int v : a.g.topological_order()) {
    Time s = a.release[static_cast<std::size_t>(v)];
    for (int p : a.g.predecessors(v)) {
      s = std::max(s, finish[static_cast<std::size_t>(p)]);
    }
    start[static_cast<std::size_t>(v)] = s;
    finish[static_cast<std::size_t>(v)] =
        s + a.weight[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    reference_fill_result_vertex(result, schedule, a, v, s,
                       finish[static_cast<std::size_t>(v)]);
  }
  return result;
}

}  // namespace ftes::testing
