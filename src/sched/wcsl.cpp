#include "sched/wcsl.h"

#include <algorithm>
#include <numeric>
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

WcslWeight copy_weight(const Process& proc, const CopyPlan& copy,
                       Time duration, int k) {
  const CopyRecovery law = CopyRecovery::from_fault_free(proc, copy, duration);
  const int cap = std::min(law.budget(), k);
  return WcslWeight{duration, cap >= 1 ? law.step() : 0, cap};
}

WcslDag build_wcsl_dag(const Application& app, const Architecture& arch,
                       const PolicyAssignment& assignment, int k,
                       const ListSchedule& schedule) {
  const int process_count = app.process_count();
  // Copy vertices are prefix-indexed by construction of the list scheduler
  // (copy j of process p sits at schedule.first_copy[p] + j), so once the
  // schedule's layout is known to be the assignment's, the (process, copy)
  // -> copy index lookup is pure arithmetic.
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
  WcslDag a;
  a.copy_count = static_cast<int>(schedule.copies.size());
  a.msg_count = static_cast<int>(schedule.messages.size());
  const int total = a.copy_count + a.msg_count;
  const std::size_t n = static_cast<std::size_t>(total);
  const auto copy_event = [&](int c) {
    return schedule.copies[static_cast<std::size_t>(c)].event;
  };

  // Vertices are commit indices, so the topological order is 0..V-1: the
  // scheduler commits one copy or transmission per event, and a vertex's
  // predecessors (its producers, the transmissions it waits for, the
  // previous execution on its node or transmission on the bus) all commit
  // before it -- checked below.  `item` maps the events back.
  WcslGraph& g = a.g;
  g.order.resize(n);
  std::iota(g.order.begin(), g.order.end(), 0);
  a.item.assign(n, -1);
  const auto place = [&](int e, int item) {
    if (e < 0 || e >= total || a.item[static_cast<std::size_t>(e)] >= 0) {
      throw std::invalid_argument(
          "WCSL DAG: commit indices are not a permutation of the events");
    }
    a.item[static_cast<std::size_t>(e)] = item;
  };
  for (int c = 0; c < a.copy_count; ++c) place(copy_event(c), c);
  for (int m = 0; m < a.msg_count; ++m) {
    place(schedule.messages[static_cast<std::size_t>(m)].event,
          a.copy_count + m);
  }

  // The (message, source copy) -> transmission event lookup, by prefix
  // offsets over every (message, source copy) pair.
  const std::vector<Message>& messages = app.messages();
  const auto message = [&](MessageId mid) -> const Message& {
    return messages[static_cast<std::size_t>(mid.get())];
  };
  const auto copies_of = [&](ProcessId pid) {
    return first_copy[static_cast<std::size_t>(pid.get()) + 1] -
           first_copy[static_cast<std::size_t>(pid.get())];
  };
  std::vector<int> first_tx(messages.size() + 1, 0);
  for (std::size_t mi = 0; mi < messages.size(); ++mi) {
    first_tx[mi + 1] = first_tx[mi] + copies_of(messages[mi].src);
  }
  std::vector<int> tx_of(static_cast<std::size_t>(first_tx.back()), -1);
  for (const ScheduledMessage& sm : schedule.messages) {
    const std::size_t mi = static_cast<std::size_t>(sm.msg.get());
    if (!sm.msg.valid() || mi >= messages.size() || sm.src_copy < 0 ||
        sm.src_copy >= first_tx[mi + 1] - first_tx[mi]) {
      throw std::invalid_argument(
          "WCSL DAG: a transmission names no (message, source copy) of the "
          "assignment");
    }
    tx_of[static_cast<std::size_t>(first_tx[mi] + sm.src_copy)] = sm.event;
  }

  // Resource edges: each event has at most one static-order predecessor,
  // the previous execution on its node or the previous transmission on the
  // bus.
  std::vector<int> order_pred(n, -1);
  for (const auto& order : schedule.node_order) {
    int prev = -1;  // event of the previous entry
    for (const int c : order) {
      if (c < 0 || c >= a.copy_count) {
        throw std::invalid_argument("WCSL DAG: a node order names no copy");
      }
      order_pred[static_cast<std::size_t>(copy_event(c))] = prev;
      prev = copy_event(c);
    }
  }
  int prev = -1;
  for (const int m : schedule.bus_order) {
    if (m < 0 || m >= a.msg_count) {
      throw std::invalid_argument(
          "WCSL DAG: the bus order names no transmission");
    }
    const int e = schedule.messages[static_cast<std::size_t>(m)].event;
    order_pred[static_cast<std::size_t>(e)] = prev;
    prev = e;
  }

  // Slices, weights and releases in event order.  A copy's slice is its
  // process's data predecessors -- per input message and producer copy,
  // the transmission of a cross-node message or the producer copy itself
  // for co-located flow; the same for every copy of the process, so listed
  // once, in its first copy's slice, and copied from there -- then its
  // order predecessor.  A transmission's one data predecessor is its
  // sending copy.
  struct DataList {  // one process's data predecessors, preds[begin, end)
    int begin = -1;  // < 0 until a copy of the process is built
    int end = 0;
    int latest = -1;  // the latest of their events
  };
  std::vector<DataList> data_of(static_cast<std::size_t>(process_count));
  std::vector<int>& preds = g.preds;
  g.pred_begin.assign(n + 1, 0);
  a.weight.resize(n);
  a.release.resize(n);
  for (std::size_t e = 0; e < n; ++e) {
    const int it = a.item[e];
    const int before = order_pred[e];
    const int at = static_cast<int>(e);
    if (it < a.copy_count) {
      const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(it)];
      const ProcessId pid = sc.ref.process;
      if (pid.get() < 0 || pid.get() >= process_count || sc.ref.copy < 0 ||
          sc.ref.copy >= copies_of(pid) ||
          first_copy[static_cast<std::size_t>(pid.get())] + sc.ref.copy !=
              it) {
        throw std::invalid_argument(
            "WCSL DAG: a copy's ref is not its place in the copy layout");
      }
      DataList& list = data_of[static_cast<std::size_t>(pid.get())];
      if (list.begin < 0) {
        list.begin = static_cast<int>(preds.size());
        for (MessageId mid : app.inputs(pid)) {
          const Message& msg = message(mid);
          const int src_lo =
              first_copy[static_cast<std::size_t>(msg.src.get())];
          for (int sj = 0; sj < copies_of(msg.src); ++sj) {
            const int tx = tx_of[static_cast<std::size_t>(
                first_tx[static_cast<std::size_t>(mid.get())] + sj)];
            const int d = tx >= 0 ? tx : copy_event(src_lo + sj);
            preds.push_back(d);
            list.latest = std::max(list.latest, d);
          }
        }
        list.end = static_cast<int>(preds.size());
      } else {
        for (int i = list.begin; i < list.end; ++i) {
          preds.push_back(preds[static_cast<std::size_t>(i)]);
        }
      }
      if (list.latest >= at || before >= at) {
        throw std::invalid_argument(
            "WCSL DAG: a predecessor was committed after its successor");
      }
      const Process& proc = app.process(pid);
      a.release[e] = proc.release;
      a.weight[e] = copy_weight(
          proc,
          assignment.plan(pid).copies[static_cast<std::size_t>(sc.ref.copy)],
          sc.finish - sc.start, k);
    } else {
      const ScheduledMessage& sm =
          schedule.messages[static_cast<std::size_t>(it - a.copy_count)];
      const Message& msg = message(sm.msg);
      const int sender = copy_event(
          first_copy[static_cast<std::size_t>(msg.src.get())] + sm.src_copy);
      if (sender >= at || before >= at) {
        throw std::invalid_argument(
            "WCSL DAG: a predecessor was committed after its successor");
      }
      preds.push_back(sender);
      a.release[e] = 0;
      a.weight[e] = WcslWeight{
          arch.bus().worst_case_duration(sm.sender, msg.size), 0, 0};
    }
    if (before >= 0) preds.push_back(before);
    g.pred_begin[e + 1] = static_cast<int>(preds.size());
  }
  return a;
}

Time wcsl_dp_row(const WcslDag& dag, int v,
                 const std::vector<std::vector<Time>>& L, int k,
                 std::vector<Time>& row) {
  const std::size_t width = static_cast<std::size_t>(k) + 1;
  if (row.size() != width) row.resize(width);
  // row[b] = max over predecessors p of L(p, b), accumulated in place;
  // nondecreasing in b because every row wcsl_dp_row writes is (by
  // induction from the sources, whose row stays all zeros).
  std::fill(row.begin(), row.end(), Time{0});
  for (int p : dag.g.predecessors(v)) {
    const std::vector<Time>& lp = L[static_cast<std::size_t>(p)];
    for (std::size_t b = 0; b < width; ++b) row[b] = std::max(row[b], lp[b]);
  }
  const Time in_k = row[width - 1];
  wcsl_row_law(dag.weight[static_cast<std::size_t>(v)],
               dag.release[static_cast<std::size_t>(v)], k, row.data());
  return in_k;
}

namespace {

void fill_result_vertex(WcslResult& result, const ListSchedule& schedule,
                        const WcslDag& a, int v, Time worst_start,
                        Time worst_finish) {
  result.makespan = std::max(result.makespan, worst_finish);
  const int it = a.item[static_cast<std::size_t>(v)];
  if (it < a.copy_count) {
    const ScheduledCopy& sc = schedule.copies[static_cast<std::size_t>(it)];
    auto& pf =
        result.process_finish[static_cast<std::size_t>(sc.ref.process.get())];
    pf = std::max(pf, worst_finish);
    result.copy_worst_start[static_cast<std::size_t>(it)] = worst_start;
    result.copy_worst_finish[static_cast<std::size_t>(it)] = worst_finish;
  } else {
    result.msg_worst_ready[static_cast<std::size_t>(it - a.copy_count)] =
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
