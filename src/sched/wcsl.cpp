#include "sched/wcsl.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <vector>

#include "fault/recovery.h"

namespace ftes {

bool WcslResult::meets_deadlines(const Application& app) const {
  if (makespan > app.deadline()) return false;
  for (int i = 0; i < app.process_count(); ++i) {
    const Process& p = app.process(ProcessId{i});
    if (p.local_deadline &&
        process_finish[static_cast<std::size_t>(i)] > *p.local_deadline) {
      return false;
    }
  }
  return true;
}

void build_wcsl_dag(const Application& app, const Architecture& arch,
                    const PolicyAssignment& assignment, int k,
                    const ListSchedule& schedule, WcslDag& a,
                    WcslDagScratch& scratch) {
  const int process_count = app.process_count();
  // Copy vertices are prefix-indexed by construction of the list scheduler
  // (copy j of process p sits at schedule.first_copy[p] + j), so once the
  // schedule's layout is known to be the assignment's, the (process, copy)
  // -> vertex lookup is pure arithmetic.
  const std::vector<int>& first_copy = schedule.first_copy;
  bool layout_ok = assignment.process_count() == process_count &&
                   first_copy.size() ==
                       static_cast<std::size_t>(process_count) + 1 &&
                   first_copy[0] == 0;
  for (int p = 0; layout_ok && p < process_count; ++p) {
    layout_ok = first_copy[static_cast<std::size_t>(p) + 1] -
                    first_copy[static_cast<std::size_t>(p)] ==
                assignment.plan(ProcessId{p}).copy_count();
  }
  if (!layout_ok || schedule.copies.size() !=
                        static_cast<std::size_t>(first_copy.back())) {
    throw std::invalid_argument(
        "WCSL DAG: the schedule's copy layout is not the assignment's");
  }
  a.copy_count = static_cast<int>(schedule.copies.size());
  a.msg_count = static_cast<int>(schedule.messages.size());
  const int total = a.copy_count + a.msg_count;
  const auto cv = [&](std::int32_t process, int copy) {
    return first_copy[static_cast<std::size_t>(process)] + copy;
  };

  // Topological order: the commit order.  The scheduler commits one copy
  // or transmission per event, and a vertex's predecessors (its producers,
  // the transmissions it waits for, the previous execution on its node or
  // transmission on the bus) all commit before it -- checked below.
  WcslGraph& g = a.g;
  std::vector<int>& event = scratch.event;
  event.resize(static_cast<std::size_t>(total));
  g.order.assign(static_cast<std::size_t>(total), -1);
  for (int v = 0; v < total; ++v) {
    const int e =
        v < a.copy_count
            ? schedule.copies[static_cast<std::size_t>(v)].event
            : schedule.messages[static_cast<std::size_t>(v - a.copy_count)]
                  .event;
    if (e < 0 || e >= total || g.order[static_cast<std::size_t>(e)] >= 0) {
      throw std::invalid_argument(
          "WCSL DAG: commit indices are not a permutation of the events");
    }
    g.order[static_cast<std::size_t>(e)] = v;
    event[static_cast<std::size_t>(v)] = e;
  }

  // The (message, source copy) -> transmission lookup, by prefix offsets.
  const std::vector<Message>& messages = app.messages();
  const auto message = [&](MessageId mid) -> const Message& {
    return messages[static_cast<std::size_t>(mid.get())];
  };
  std::vector<int>& first_tx = scratch.first_tx;
  first_tx.resize(messages.size() + 1);
  first_tx[0] = 0;
  for (std::size_t mi = 0; mi < messages.size(); ++mi) {
    first_tx[mi + 1] =
        first_tx[mi] + assignment.plan(messages[mi].src).copy_count();
  }
  std::vector<int>& tx_of = scratch.tx_of;
  tx_of.assign(static_cast<std::size_t>(first_tx.back()), -1);
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    const std::size_t mi = static_cast<std::size_t>(sm.msg.get());
    if (!sm.msg.valid() || mi >= messages.size() || sm.src_copy < 0 ||
        sm.src_copy >= first_tx[mi + 1] - first_tx[mi]) {
      throw std::invalid_argument(
          "WCSL DAG: a transmission names no (message, source copy) of the "
          "assignment");
    }
    tx_of[static_cast<std::size_t>(first_tx[mi] + sm.src_copy)] = m;
  }

  // Resource edges: each vertex has at most one static-order predecessor,
  // the previous execution on its node or the previous transmission on the
  // bus.
  std::vector<int>& order_pred = scratch.order_pred;
  order_pred.assign(static_cast<std::size_t>(total), -1);
  for (const auto& order : schedule.node_order) {
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] < 0 || order[i] >= a.copy_count) {
        throw std::invalid_argument("WCSL DAG: a node order names no copy");
      }
      if (i > 0) order_pred[static_cast<std::size_t>(order[i])] = order[i - 1];
    }
  }
  for (std::size_t i = 0; i < schedule.bus_order.size(); ++i) {
    const int m = schedule.bus_order[i];
    if (m < 0 || m >= a.msg_count) {
      throw std::invalid_argument(
          "WCSL DAG: the bus order names no transmission");
    }
    if (i > 0) {
      order_pred[static_cast<std::size_t>(a.msg_vertex(m))] =
          a.msg_vertex(schedule.bus_order[i - 1]);
    }
  }

  // Data edges.  Every copy of a consumer has the same data predecessors:
  // per input message and producer copy, the transmission vertex of a
  // cross-node message or the producer copy itself for co-located flow.
  // A transmission's one data predecessor is its sending copy.
  std::vector<int>& data_count = scratch.data_count;
  data_count.assign(static_cast<std::size_t>(process_count), 0);
  for (const Message& msg : messages) {
    data_count[static_cast<std::size_t>(msg.dst.get())] +=
        assignment.plan(msg.src).copy_count();
  }
  g.pred_begin.resize(static_cast<std::size_t>(total) + 1);
  g.pred_begin[0] = 0;
  for (int p = 0; p < process_count; ++p) {
    for (int v = first_copy[static_cast<std::size_t>(p)];
         v < first_copy[static_cast<std::size_t>(p) + 1]; ++v) {
      g.pred_begin[static_cast<std::size_t>(v) + 1] =
          g.pred_begin[static_cast<std::size_t>(v)] +
          data_count[static_cast<std::size_t>(p)] +
          (order_pred[static_cast<std::size_t>(v)] >= 0 ? 1 : 0);
    }
  }
  for (int v = a.copy_count; v < total; ++v) {
    g.pred_begin[static_cast<std::size_t>(v) + 1] =
        g.pred_begin[static_cast<std::size_t>(v)] + 1 +
        (order_pred[static_cast<std::size_t>(v)] >= 0 ? 1 : 0);
  }
  g.preds.resize(
      static_cast<std::size_t>(g.pred_begin[static_cast<std::size_t>(total)]));
  // Writes the `data` list, whose latest commit index is `data_event`,
  // then v's order predecessor (if any) into v's slice.
  std::vector<int>& data = scratch.data;
  const auto fill = [&](int v, int data_event) {
    const int prev = order_pred[static_cast<std::size_t>(v)];
    const int at = event[static_cast<std::size_t>(v)];
    if (data_event >= at ||
        (prev >= 0 && event[static_cast<std::size_t>(prev)] >= at)) {
      throw std::invalid_argument(
          "WCSL DAG: a predecessor was committed after its successor");
    }
    int* out = std::copy(data.begin(), data.end(),
                         g.preds.data() +
                             g.pred_begin[static_cast<std::size_t>(v)]);
    if (prev >= 0) *out = prev;
  };
  for (int p = 0; p < process_count; ++p) {
    data.clear();
    int data_event = -1;
    for (MessageId mid : app.inputs(ProcessId{p})) {
      const Message& msg = message(mid);
      const int src_copies = assignment.plan(msg.src).copy_count();
      for (int sj = 0; sj < src_copies; ++sj) {
        const int tx = tx_of[static_cast<std::size_t>(
            first_tx[static_cast<std::size_t>(mid.get())] + sj)];
        const int d = tx >= 0 ? a.msg_vertex(tx) : cv(msg.src.get(), sj);
        data.push_back(d);
        data_event = std::max(data_event, event[static_cast<std::size_t>(d)]);
      }
    }
    for (int v = first_copy[static_cast<std::size_t>(p)];
         v < first_copy[static_cast<std::size_t>(p) + 1]; ++v) {
      fill(v, data_event);
    }
  }
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    const int sender = cv(message(sm.msg).src.get(), sm.src_copy);
    data.assign(1, sender);
    fill(a.msg_vertex(m), event[static_cast<std::size_t>(sender)]);
  }

  // Per-vertex weights: one execution-time lookup per copy, and the
  // per-fault step only where some E(n, f >= 1) is needed (cap >= 1), so
  // segment_length rejects a bad WCET exactly where the law is used.
  a.weight.resize(static_cast<std::size_t>(total));
  a.release.assign(static_cast<std::size_t>(total), 0);
  for (int p = 0; p < process_count; ++p) {
    const Process& proc = app.process(ProcessId{p});
    const ProcessPlan& plan = assignment.plan(ProcessId{p});
    for (int j = 0; j < plan.copy_count(); ++j) {
      const int v = cv(p, j);
      const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(v)];
      if (sc.ref.process.get() != p || sc.ref.copy != j) {
        throw std::invalid_argument(
            "WCSL DAG: a copy's ref is not its place in the copy layout");
      }
      const CopyPlan& cp = plan.copies[static_cast<std::size_t>(j)];
      const RecoveryParams params{proc.wcet_on(sc.node), proc.alpha, proc.mu,
                                  proc.chi};
      a.release[static_cast<std::size_t>(v)] = proc.release;
      WcslWeight& w = a.weight[static_cast<std::size_t>(v)];
      if (cp.checkpoints < 1) {
        w = WcslWeight{replica_exec_time(params), 0, 0};
        continue;
      }
      w = WcslWeight{checkpointed_exec_time(params, cp.checkpoints, 0), 0,
                     std::min(cp.recoveries, k)};
      if (w.cap >= 1) {
        w.step = segment_length(params.wcet, cp.checkpoints) + params.alpha +
                 params.mu;
      }
    }
  }
  for (int m = 0; m < a.msg_count; ++m) {
    const ScheduledMessage& sm = schedule.messages[static_cast<std::size_t>(m)];
    a.weight[static_cast<std::size_t>(a.msg_vertex(m))] = WcslWeight{
        arch.bus().worst_case_duration(sm.sender, message(sm.msg).size), 0,
        0};
  }
}

WcslDag build_wcsl_dag(const Application& app, const Architecture& arch,
                       const PolicyAssignment& assignment, int k,
                       const ListSchedule& schedule) {
  WcslDag dag;
  WcslDagScratch scratch;
  build_wcsl_dag(app, arch, assignment, k, schedule, dag, scratch);
  return dag;
}

Time wcsl_dp_row(const WcslDag& dag, int v,
                 const std::vector<std::vector<Time>>& L, int k,
                 std::vector<Time>& row) {
  // best_in[b] = max over predecessors p of L(p, b), accumulated in `row`
  // itself; nondecreasing in b because every row wcsl_dp_row writes is
  // (by induction from the sources, whose best_in is all zeros).
  row.assign(static_cast<std::size_t>(k) + 1, 0);
  Time* best_in = row.data();
  for (int p : dag.g.predecessors(v)) {
    const Time* lp = L[static_cast<std::size_t>(p)].data();
    for (int b = 0; b <= k; ++b) best_in[b] = std::max(best_in[b], lp[b]);
  }
  assert(std::is_sorted(best_in, best_in + k + 1));
  const Time in_k = best_in[k];
  const Time release = dag.release[static_cast<std::size_t>(v)];
  const WcslWeight w = dag.weight[static_cast<std::size_t>(v)];
  // L(v, b) = max_{f <= b} [w(f) + g(b - f)] with g(j) = max(release,
  // best_in[j]), by the closed forms of the header comment, written over
  // best_in in place.
  if (w.step == 0 || w.cap <= 0) {
    for (int b = 0; b <= k; ++b) {
      best_in[b] = w.base + std::max(release, best_in[b]);
    }
  } else if (w.cap >= k) {
    // Running max of h(j) = g(j) - j * step over j <= b, ascending b:
    // best_in[b] is read just before it is overwritten.
    Time best_h = std::numeric_limits<Time>::lowest();
    for (int b = 0; b <= k; ++b) {
      const Time stepped = static_cast<Time>(b) * w.step;
      best_h = std::max(best_h, std::max(release, best_in[b]) - stepped);
      best_in[b] = w.base + stepped + best_h;
    }
  } else {
    // Window b - cap <= j <= b, descending b: row b reads best_in[j] for
    // j <= b only, so each entry is overwritten after its last read.
    for (int b = k; b >= 0; --b) {
      Time best_h = std::numeric_limits<Time>::lowest();
      for (int j = std::max(0, b - w.cap); j <= b; ++j) {
        best_h = std::max(best_h, std::max(release, best_in[j]) -
                                      static_cast<Time>(j) * w.step);
      }
      best_in[b] = w.base + static_cast<Time>(b) * w.step + best_h;
    }
  }
  return in_k;
}

namespace {

void fill_result_vertex(WcslResult& result, const ListSchedule& schedule,
                        const WcslDag& a, int v, Time worst_start,
                        Time worst_finish) {
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

WcslResult make_result(const Application& app, const WcslDag& a) {
  WcslResult result;
  result.process_finish.assign(static_cast<std::size_t>(app.process_count()),
                               0);
  result.copy_worst_start.assign(static_cast<std::size_t>(a.copy_count), 0);
  result.copy_worst_finish.assign(static_cast<std::size_t>(a.copy_count), 0);
  result.msg_worst_ready.assign(static_cast<std::size_t>(a.msg_count), 0);
  return result;
}

}  // namespace

WcslResult worst_case_schedule_length(const Application& app,
                                      const Architecture& arch,
                                      const PolicyAssignment& assignment,
                                      const FaultModel& model,
                                      const ListSchedule& schedule) {
  model.validate();
  const int k = model.k;
  const WcslDag a = build_wcsl_dag(app, arch, assignment, k, schedule);
  const int total = a.g.vertex_count();

  // Budgeted longest-path DP in topological order (one wcsl_dp_row call per
  // vertex).
  std::vector<std::vector<Time>> L(static_cast<std::size_t>(total));
  WcslResult result = make_result(app, a);

  for (int v : a.g.topological_order()) {
    const Time in_k =
        wcsl_dp_row(a, v, L, k, L[static_cast<std::size_t>(v)]);
    const Time worst =
        L[static_cast<std::size_t>(v)][static_cast<std::size_t>(k)];
    const Time worst_start =
        std::max(a.release[static_cast<std::size_t>(v)], in_k);
    fill_result_vertex(result, schedule, a, v, worst_start, worst);
  }
  return result;
}

WcslResult worst_case_transparent(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& assignment,
                                  const FaultModel& model,
                                  const ListSchedule& schedule) {
  model.validate();
  const int k = model.k;
  const WcslDag a = build_wcsl_dag(app, arch, assignment, k, schedule);
  const int total = a.g.vertex_count();

  // Transparent (root-schedule) analysis: the start of every vertex must
  // hold in *every* scenario, and every vertex must be able to absorb all k
  // faults locally inside its slack.  Budgets therefore do not split along
  // a path: plain longest path with full-k weights.
  std::vector<Time> finish(static_cast<std::size_t>(total), 0);
  WcslResult result = make_result(app, a);

  for (int v : a.g.topological_order()) {
    Time s = a.release[static_cast<std::size_t>(v)];
    for (int p : a.g.predecessors(v)) {
      s = std::max(s, finish[static_cast<std::size_t>(p)]);
    }
    finish[static_cast<std::size_t>(v)] = s + a.weight_at(v, k);
    fill_result_vertex(result, schedule, a, v, s,
                       finish[static_cast<std::size_t>(v)]);
  }
  return result;
}

WcslResult evaluate_wcsl(const Application& app, const Architecture& arch,
                         const PolicyAssignment& assignment,
                         const FaultModel& model) {
  const ListSchedule schedule = list_schedule(app, arch, assignment);
  return worst_case_schedule_length(app, arch, assignment, model, schedule);
}

}  // namespace ftes
