#include "sched/wcsl.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <type_traits>
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
                    WcslDagScratch& scratch, int first) {
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
  a.copy_count = static_cast<int>(schedule.copies.size());
  a.msg_count = static_cast<int>(schedule.messages.size());
  const int total = a.copy_count + a.msg_count;
  if (first < 0 || first > total) {
    throw std::invalid_argument("WCSL DAG: first event out of range");
  }
  const std::size_t from = static_cast<std::size_t>(first);
  const std::size_t n = static_cast<std::size_t>(total);
  const auto copy_event = [&](int c) {
    return schedule.copies[static_cast<std::size_t>(c)].event;
  };
  const auto msg_event = [&](int m) {
    return schedule.messages[static_cast<std::size_t>(m)].event;
  };

  // Vertices are commit indices, so the topological order is 0..V-1: the
  // scheduler commits one copy or transmission per event, and a vertex's
  // predecessors (its producers, the transmissions it waits for, the
  // previous execution on its node or transmission on the bus) all commit
  // before it -- checked below.  `item` maps events first..V-1 back.
  WcslGraph& g = a.g;
  if (g.order.size() != n) {
    const std::size_t known = std::min(g.order.size(), n);
    g.order.resize(n);
    std::iota(g.order.begin() + static_cast<std::ptrdiff_t>(known),
              g.order.end(), static_cast<int>(known));
  }
  a.item.resize(n);
  std::fill(a.item.begin() + static_cast<std::ptrdiff_t>(from), a.item.end(),
            -1);
  int placed = 0;
  const auto place = [&](int e, int item) {
    if (e < 0 || e >= total ||
        (e >= first && a.item[static_cast<std::size_t>(e)] >= 0)) {
      throw std::invalid_argument(
          "WCSL DAG: commit indices are not a permutation of the events");
    }
    if (e >= first) {
      a.item[static_cast<std::size_t>(e)] = item;
      ++placed;
    }
  };
  for (int c = 0; c < a.copy_count; ++c) place(copy_event(c), c);
  // Transmissions, like each node's and the bus's order below, are in
  // commit order, so those from `first` on are a suffix: walk back.
  for (int m = a.msg_count - 1; m >= 0 && msg_event(m) >= first; --m) {
    place(msg_event(m), a.copy_count + m);
  }
  if (placed != total - first) {
    throw std::invalid_argument(
        "WCSL DAG: commit indices are not a permutation of the events");
  }

  // The (message, source copy) -> transmission event lookup, by prefix
  // offsets over every transmission (a built consumer may read one
  // committed before `first`).
  const std::vector<Message>& messages = app.messages();
  const auto message = [&](MessageId mid) -> const Message& {
    return messages[static_cast<std::size_t>(mid.get())];
  };
  const auto copies_of = [&](ProcessId pid) {
    return first_copy[static_cast<std::size_t>(pid.get()) + 1] -
           first_copy[static_cast<std::size_t>(pid.get())];
  };
  std::vector<int>& first_tx = scratch.first_tx;
  first_tx.resize(messages.size() + 1);
  first_tx[0] = 0;
  for (std::size_t mi = 0; mi < messages.size(); ++mi) {
    first_tx[mi + 1] = first_tx[mi] + copies_of(messages[mi].src);
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
    tx_of[static_cast<std::size_t>(first_tx[mi] + sm.src_copy)] = sm.event;
  }

  // Resource edges: each event has at most one static-order predecessor,
  // the previous execution on its node or the previous transmission on the
  // bus.  Walked back from each order's end down to its first entry before
  // `first`, which is the order predecessor of the entry after it.
  std::vector<int>& order_pred = scratch.order_pred;
  order_pred.resize(n);
  std::fill(order_pred.begin() + static_cast<std::ptrdiff_t>(from),
            order_pred.end(), -1);
  for (const auto& order : schedule.node_order) {
    int succ = -1;  // event of the entry after the current one
    for (std::size_t i = order.size(); i-- > 0;) {
      if (order[i] < 0 || order[i] >= a.copy_count) {
        throw std::invalid_argument("WCSL DAG: a node order names no copy");
      }
      const int e = copy_event(order[i]);
      if (succ >= 0) order_pred[static_cast<std::size_t>(succ)] = e;
      if (e < first) break;
      succ = e;
    }
  }
  int succ = -1;
  for (std::size_t i = schedule.bus_order.size(); i-- > 0;) {
    const int m = schedule.bus_order[i];
    if (m < 0 || m >= a.msg_count) {
      throw std::invalid_argument(
          "WCSL DAG: the bus order names no transmission");
    }
    const int e = msg_event(m);
    if (succ >= 0) order_pred[static_cast<std::size_t>(succ)] = e;
    if (e < first) break;
    succ = e;
  }

  // Slices, weights and releases of events first..V-1, in event order.
  // A copy's slice is its process's data predecessors -- per input message
  // and producer copy, the transmission of a cross-node message or the
  // producer copy itself for co-located flow; the same for every copy of
  // the process, so listed once, in its first built copy's slice, and
  // copied from there -- then its order predecessor.  A transmission's one
  // data predecessor is its sending copy.  Weights take one execution-time
  // lookup per copy, and the per-fault step only where some E(n, f >= 1)
  // is needed (cap >= 1), so segment_length rejects a bad WCET exactly
  // where the law is used.
  std::vector<WcslDagScratch::DataList>& data_of = scratch.data_of;
  data_of.assign(static_cast<std::size_t>(process_count), {});
  std::vector<int>& preds = g.preds;
  g.pred_begin.resize(n + 1);
  g.pred_begin[from] = 0;
  preds.clear();
  a.weight.resize(n);
  a.release.resize(n);
  for (std::size_t e = from; e < n; ++e) {
    const int it = a.item[e];
    const int prev = order_pred[e];
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
      WcslDagScratch::DataList& list =
          data_of[static_cast<std::size_t>(pid.get())];
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
        const std::size_t out = preds.size();
        preds.resize(out + static_cast<std::size_t>(list.end - list.begin));
        std::copy(preds.begin() + list.begin, preds.begin() + list.end,
                  preds.begin() + static_cast<std::ptrdiff_t>(out));
      }
      if (list.latest >= at || prev >= at) {
        throw std::invalid_argument(
            "WCSL DAG: a predecessor was committed after its successor");
      }
      const Process& proc = app.process(pid);
      const CopyPlan& cp =
          assignment.plan(pid).copies[static_cast<std::size_t>(sc.ref.copy)];
      const RecoveryParams params{proc.wcet_on(sc.node), proc.alpha, proc.mu,
                                  proc.chi};
      a.release[e] = proc.release;
      WcslWeight& w = a.weight[e];
      if (cp.checkpoints < 1) {
        w = WcslWeight{replica_exec_time(params), 0, 0};
      } else {
        w = WcslWeight{checkpointed_exec_time(params, cp.checkpoints, 0), 0,
                       std::min(cp.recoveries, k)};
        if (w.cap >= 1) {
          w.step = segment_length(params.wcet, cp.checkpoints) +
                   params.alpha + params.mu;
        }
      }
    } else {
      const ScheduledMessage& sm =
          schedule.messages[static_cast<std::size_t>(it - a.copy_count)];
      const Message& msg = message(sm.msg);
      const int sender = copy_event(
          first_copy[static_cast<std::size_t>(msg.src.get())] + sm.src_copy);
      if (sender >= at || prev >= at) {
        throw std::invalid_argument(
            "WCSL DAG: a predecessor was committed after its successor");
      }
      preds.push_back(sender);
      a.release[e] = 0;
      a.weight[e] = WcslWeight{
          arch.bus().worst_case_duration(sm.sender, msg.size), 0, 0};
    }
    if (prev >= 0) preds.push_back(prev);
    g.pred_begin[e + 1] = static_cast<int>(preds.size());
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

namespace {

/// wcsl_dp_row into the k + 1 entries at `best_in`, with the predecessor
/// rows read through `row_of(p)`.  `K` is int, or a
/// std::integral_constant that fixes k at compile time.
template <class RowOf, class K>
Time dp_row(const WcslDag& dag, int v, const RowOf& row_of, K k_arg,
            Time* best_in) {
  const int k = k_arg;
  // best_in[b] = max over predecessors p of L(p, b), accumulated in the
  // output row itself; nondecreasing in b because every row wcsl_dp_row
  // writes is (by induction from the sources, whose best_in is all zeros).
  std::fill_n(best_in, static_cast<std::size_t>(k) + 1, Time{0});
  for (int p : dag.g.predecessors(v)) {
    const Time* lp = row_of(p);
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

template <int K>
using FixedK = std::integral_constant<int, K>;

/// wcsl_dp_from's pass over flat rows; `K` as in dp_row.
template <class K>
Time dp_pass(const WcslDag& dag, int first, const Time* prefix, Time* out,
             K k_arg) {
  const int k = k_arg;
  const std::size_t width = static_cast<std::size_t>(k) + 1;
  const auto row_of = [&](int p) {
    return (p < first ? prefix : out) + static_cast<std::size_t>(p) * width;
  };
  Time worst = 0;
  for (int e = first; e < dag.g.vertex_count(); ++e) {
    Time* row = out + static_cast<std::size_t>(e) * width;
    (void)dp_row(dag, e, row_of, k_arg, row);
    worst = std::max(worst, row[k]);
  }
  return worst;
}

}  // namespace

Time wcsl_dp_row(const WcslDag& dag, int v,
                 const std::vector<std::vector<Time>>& L, int k,
                 std::vector<Time>& row) {
  const std::size_t width = static_cast<std::size_t>(k) + 1;
  if (row.size() != width) row.resize(width);
  return dp_row(
      dag, v,
      [&](int p) { return L[static_cast<std::size_t>(p)].data(); }, k,
      row.data());
}

Time wcsl_dp_from(const WcslDag& dag, int first,
                  const std::vector<Time>& base, std::vector<Time>& rows,
                  int k) {
  rows.resize(static_cast<std::size_t>(dag.g.vertex_count()) *
              (static_cast<std::size_t>(k) + 1));
  const Time* prefix = base.data();
  Time* out = rows.data();
  // For the paper's k = 1..7 k is a compile-time constant, so the O(k)
  // row loops unroll; any other k takes the same loops with k at run time.
  switch (k) {
    case 1: return dp_pass(dag, first, prefix, out, FixedK<1>{});
    case 2: return dp_pass(dag, first, prefix, out, FixedK<2>{});
    case 3: return dp_pass(dag, first, prefix, out, FixedK<3>{});
    case 4: return dp_pass(dag, first, prefix, out, FixedK<4>{});
    case 5: return dp_pass(dag, first, prefix, out, FixedK<5>{});
    case 6: return dp_pass(dag, first, prefix, out, FixedK<6>{});
    case 7: return dp_pass(dag, first, prefix, out, FixedK<7>{});
    default: return dp_pass(dag, first, prefix, out, k);
  }
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
