#include "sched/list_scheduler.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "fault/recovery.h"
#include "util/binary_heap.h"

namespace ftes {

int ListSchedule::copy_index(CopyRef ref) const {
  const std::int32_t p = ref.process.get();
  if (p < 0 || static_cast<std::size_t>(p) + 1 >= first_copy.size()) return -1;
  if (ref.copy < 0) return -1;
  const int idx = first_copy[static_cast<std::size_t>(p)] + ref.copy;
  if (idx >= first_copy[static_cast<std::size_t>(p) + 1]) return -1;
  return idx;
}

Time ListSchedule::process_finish(ProcessId p) const {
  if (!p.valid() ||
      static_cast<std::size_t>(p.get()) + 1 >= first_copy.size()) {
    return 0;
  }
  Time latest = 0;
  for (int i = first_copy[static_cast<std::size_t>(p.get())];
       i < first_copy[static_cast<std::size_t>(p.get()) + 1]; ++i) {
    latest = std::max(latest, copies[static_cast<std::size_t>(i)].finish);
  }
  return latest;
}

// `event` occupies alignment padding: stamping commit indices costs no
// snapshot bytes.
static_assert(sizeof(ScheduledCopy) == 32 && sizeof(ScheduledMessage) == 40);

std::size_t snapshot_bytes(const ScheduleSnapshot& s) {
  std::size_t bytes = sizeof(ScheduleSnapshot);
  bytes += s.node_free.size() * sizeof(Time);
  bytes += s.placed.size() * sizeof(char);
  bytes += s.deps_left.size() * sizeof(int);
  bytes += s.data_ready.size() * sizeof(Time);
  bytes += s.ready_heap.size() * sizeof(SnapshotReadyEntry);
  bytes += s.tx_heap.size() * sizeof(TxEntry);
  bytes += s.partial.copies.size() * sizeof(ScheduledCopy);
  bytes += s.partial.messages.size() * sizeof(ScheduledMessage);
  bytes += s.partial.bus_order.size() * sizeof(int);
  bytes += s.partial.first_copy.size() * sizeof(int);
  for (const std::vector<int>& order : s.partial.node_order) {
    bytes += sizeof(order) + order.size() * sizeof(int);
  }
  return bytes;
}

Time fault_free_duration(const Application& app, const CopyPlan& copy,
                         ProcessId pid) {
  const Process& proc = app.process(pid);
  RecoveryParams params{proc.wcet_on(copy.node), proc.alpha, proc.mu,
                        proc.chi};
  if (copy.checkpoints >= 1) {
    return checkpointed_exec_time(params, copy.checkpoints, 0);
  }
  return replica_exec_time(params);
}

PolicyAssignment strip_fault_tolerance(const Application& app,
                                       const PolicyAssignment& reference) {
  PolicyAssignment stripped(app.process_count());
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    ProcessPlan plan;
    plan.kind = PolicyKind::kCheckpointing;
    CopyPlan copy;
    copy.node = reference.plan(pid).copies.at(0).node;
    copy.checkpoints = 0;  // no checkpoint overhead, no recoveries
    copy.recoveries = 0;
    plan.copies.push_back(copy);
    stripped.plan(pid) = plan;
  }
  return stripped;
}

namespace {

/// Exact event count of a full build: every copy placement plus one bus
/// transmission per (cross-node message, producer copy).  Shared by
/// Scheduler::total_events and default_snapshot_interval so the event
/// definition cannot drift between them.
std::size_t count_total_events(const Application& app,
                               const PolicyAssignment& assignment) {
  std::size_t events = 0;
  for (int i = 0; i < assignment.process_count(); ++i) {
    events +=
        static_cast<std::size_t>(assignment.plan(ProcessId{i}).copy_count());
  }
  for (const Message& m : app.messages()) {
    const ProcessPlan& sp = assignment.plan(m.src);
    const ProcessPlan& dp = assignment.plan(m.dst);
    for (const CopyPlan& s : sp.copies) {
      for (const CopyPlan& d : dp.copies) {
        if (d.node != s.node) {
          ++events;
          break;
        }
      }
    }
  }
  return events;
}

/// The default snapshot interval for a build of that many events: the
/// nearest integer to sqrt(events), in pure integer math so the interval
/// (and thus every snapshot-resume counter) is bit-identical across libm
/// implementations.  r = floor(sqrt(n)) by digit-pair isqrt, bumped past
/// the midpoint since (r + 0.5)^2 = r^2 + r + 0.25.
int interval_for_events(std::size_t events) {
  std::size_t r = 0;
  std::size_t rem = events;
  std::size_t bit = std::size_t{1}
                    << (std::numeric_limits<std::size_t>::digits - 2);
  while (bit > rem) bit >>= 2;
  while (bit != 0) {
    if (rem >= r + bit) {
      rem -= r + bit;
      r = (r >> 1) + bit;
    } else {
      r >>= 1;
    }
    bit >>= 2;
  }
  if (events - r * r > r) ++r;  // round half up, matching llround(sqrt(n))
  return std::max(1, static_cast<int>(r));
}

struct CopyVertex {
  CopyRef ref;
  NodeId node;
  Time duration = 0;
  Time release = 0;
};

/// Pick order among ready copies with equal start: highest partial critical
/// path rank, then lowest vertex id -- the tie-breaking of the historical
/// linear ready-scan.  Orders a node's `avail` queue, whose copies all start
/// when the node is free.
struct RankLess {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.rank != b.rank) return a.rank > b.rank;
    return a.vertex < b.vertex;
  }
};

/// Order of a node's `future` queue: earliest bound (each such copy starts
/// exactly at its bound), then RankLess.
struct BoundLess {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.bound != b.bound) return a.bound < b.bound;
    return RankLess{}(a, b);
  }
};

/// Min order of the pending-transmission queue: earliest ready, then lowest
/// message id, then enqueue order -- the historical linear minimum search.
struct TxLess {
  bool operator()(const TxEntry& a, const TxEntry& b) const {
    if (a.ready != b.ready) return a.ready < b.ready;
    if (a.msg != b.msg) return a.msg < b.msg;
    return a.seq < b.seq;
  }
};

/// One list-scheduling run: static problem data (copy vertices, dependency
/// counts, priorities) plus the dynamic event-loop state.  The dynamic state
/// either starts fresh (full build) or is restored from a base run's
/// ScheduleSnapshot with the moved process's vertices re-derived (resume).
class Scheduler {
 public:
  Scheduler(const Application& app, const Architecture& arch,
            const PolicyAssignment& assignment)
      : app_(app),
        arch_(arch),
        assignment_(assignment),
        avail(static_cast<std::size_t>(arch.node_count())),
        future(static_cast<std::size_t>(arch.node_count())) {}

  // ---- static problem data ---------------------------------------------

  void build_static() {
    if (assignment_.process_count() != app_.process_count()) {
      throw std::invalid_argument("assignment size mismatch");
    }
    first_copy.assign(static_cast<std::size_t>(app_.process_count()) + 1, 0);
    for (int i = 0; i < app_.process_count(); ++i) {
      const ProcessId pid{i};
      const ProcessPlan& plan = assignment_.plan(pid);
      if (plan.copies.empty()) {
        throw std::invalid_argument("plan without copies");
      }
      first_copy[static_cast<std::size_t>(i) + 1] =
          first_copy[static_cast<std::size_t>(i)] + plan.copy_count();
      for (int j = 0; j < plan.copy_count(); ++j) {
        const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
        if (!copy.node.valid()) throw std::invalid_argument("unmapped copy");
        CopyVertex v;
        v.ref = CopyRef{pid, j};
        v.node = copy.node;
        v.duration = fault_free_duration(app_, copy, pid);
        v.release = app_.process(pid).release;
        verts.push_back(v);
      }
    }

    // Dependency counts: every copy of a consumer waits for one delivery
    // per (input message, producer copy), so the count is per process.
    deps.assign(static_cast<std::size_t>(app_.process_count()), 0);
    for (const Message& m : app_.messages()) {
      deps[static_cast<std::size_t>(m.dst.get())] +=
          assignment_.plan(m.src).copy_count();
    }
    compute_ranks();
  }

  /// The ranks of partial_critical_path_ranks (see list_scheduler.h for
  /// why the process-level pass is exact).  The bus term approximates
  /// communication by the worst case; exact slot timing is resolved during
  /// placement.
  void compute_ranks() {
    const std::size_t process_count =
        static_cast<std::size_t>(app_.process_count());
    rank.assign(verts.size(), 0);
    std::vector<Time> best(process_count, 0);  // max copy rank per process
    // Kahn on the reversed process graph: a process is ranked once every
    // consumer is.
    std::vector<int> unranked_outputs(process_count, 0);
    std::vector<std::int32_t> queue;
    queue.reserve(process_count);
    for (std::size_t p = 0; p < process_count; ++p) {
      unranked_outputs[p] = static_cast<int>(
          app_.outputs(ProcessId{static_cast<std::int32_t>(p)}).size());
      if (unranked_outputs[p] == 0) {
        queue.push_back(static_cast<std::int32_t>(p));
      }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const ProcessId pid{queue[head]};
      const std::vector<MessageId>& outputs = app_.outputs(pid);
      Time downstream = 0;
      for (MessageId mid : outputs) {
        downstream = std::max(
            downstream,
            best[static_cast<std::size_t>(app_.message(mid).dst.get())]);
      }
      Time& process_best = best[static_cast<std::size_t>(pid.get())];
      for (int v = first_copy[static_cast<std::size_t>(pid.get())];
           v < first_copy[static_cast<std::size_t>(pid.get()) + 1]; ++v) {
        const CopyVertex& cv = verts[static_cast<std::size_t>(v)];
        Time comm = 0;
        for (MessageId mid : outputs) {
          comm = std::max(comm, arch_.bus().worst_case_duration(
                                    cv.node, app_.message(mid).size));
        }
        const Time r = downstream + (cv.duration + comm);
        rank[static_cast<std::size_t>(v)] = r;
        process_best = std::max(process_best, r);
      }
      for (MessageId mid : app_.inputs(pid)) {
        const std::size_t src =
            static_cast<std::size_t>(app_.message(mid).src.get());
        if (--unranked_outputs[src] == 0) {
          queue.push_back(static_cast<std::int32_t>(src));
        }
      }
    }
    if (queue.size() != process_count) {
      throw std::invalid_argument("application graph has a cycle");
    }
  }

  [[nodiscard]] int vertex_of(ProcessId p, int copy) const {
    return first_copy[static_cast<std::size_t>(p.get())] + copy;
  }

  /// Exact event count of a full run (count_total_events above; the copy
  /// placements equal verts.size() by construction).
  [[nodiscard]] std::size_t total_events() const {
    return count_total_events(app_, assignment_);
  }

  // ---- dynamic state ----------------------------------------------------

  void init_dynamic() {
    result.copies.assign(verts.size(), ScheduledCopy{});
    result.first_copy = first_copy;
    result.node_order.assign(static_cast<std::size_t>(arch_.node_count()), {});
    node_free.assign(static_cast<std::size_t>(arch_.node_count()), 0);
    placed.assign(verts.size(), 0);
    data_ready.assign(verts.size(), 0);
    deps_left.assign(verts.size(), 0);
    for (std::size_t v = 0; v < verts.size(); ++v) {
      deps_left[v] =
          deps[static_cast<std::size_t>(verts[v].ref.process.get())];
    }
    remaining = verts.size();
    if (log) {
      log->snapshots.clear();
      log->avail_event.assign(verts.size(), 0);
      log->placed_event.assign(verts.size(), 0);
      log->ties.clear();
      log->rank = rank;
    }
    for (std::size_t v = 0; v < verts.size(); ++v) {
      if (deps_left[v] == 0) file_ready(static_cast<int>(v));
    }
  }

  /// Files a copy whose last dependency has arrived.  Its bound
  /// max(data_ready, release) is fixed from now on and node_free only
  /// grows, so the copy waits in its node's `future` queue until the node's
  /// free time reaches the bound (commit_copy promotes it) and in `avail`
  /// from then on -- both keys are exact, nothing is ever re-keyed.
  void file_ready(int v) {
    const std::size_t i = static_cast<std::size_t>(v);
    const CopyVertex& cv = verts[i];
    const std::size_t n = static_cast<std::size_t>(cv.node.get());
    const ReadyEntry e{std::max(data_ready[i], cv.release), rank[i], v};
    if (e.bound <= node_free[n]) {
      avail[n].push(e);
    } else {
      future[n].push(e);
    }
  }

  // ---- event loop -------------------------------------------------------

  ListSchedule run() {
    while (remaining > 0) {
      if (log &&
          event % static_cast<std::size_t>(log->snapshot_interval) == 0 &&
          event != skip_snapshot_event) {
        take_snapshot();
      }

      // Best startable copy: the (start, rank desc, vertex) minimum over
      // the nodes' heads.  A node's head is its best `avail` copy, starting
      // at node_free, when there is one (every `future` copy starts later),
      // else its earliest `future` copy.  O(N) for N nodes -- 2 to 6 on
      // every input in the repository -- so no tournament tree.
      std::size_t best_node = 0;
      const ReadyEntry* best = nullptr;
      Time best_start = kTimeInfinity;
      for (std::size_t n = 0; n < node_free.size(); ++n) {
        const ReadyEntry* head = nullptr;
        Time start = 0;
        if (!avail[n].empty()) {
          head = &avail[n].top();
          start = node_free[n];
        } else if (!future[n].empty()) {
          head = &future[n].top();
          start = head->bound;
        } else {
          continue;
        }
        if (!best || start < best_start ||
            (start == best_start && RankLess{}(*head, *best))) {
          best_node = n;
          best = head;
          best_start = start;
        }
      }

      // A transmission ready no later than the earliest startable copy is
      // committed first, keeping the bus FIFO in ready order.
      if (!txq.empty() && (!best || txq.top().ready <= best_start)) {
        const TxEntry tx = txq.top();
        txq.pop();
        ++heap_pops;
        commit_tx(tx);
      } else if (!best) {
        throw std::logic_error("list scheduler deadlock (cyclic copy graph?)");
      } else {
        const int v = best->vertex;
        if (!avail[best_node].empty()) {
          avail[best_node].pop();
        } else {
          future[best_node].pop();
        }
        ++heap_pops;
        if (log) record_start_ties(v, best_start);
        commit_copy(v, best_start);
      }
      ++event;
    }

    // Bus finish may exceed the last copy finish; the cycle ends when all
    // activity (including transmissions) completed.
    for (const ScheduledMessage& m : result.messages) {
      result.makespan = std::max(result.makespan, m.finish);
    }
    if (log) log->event_count = event;
    return std::move(result);
  }

  void commit_copy(int v, Time start) {
    const CopyVertex& cv = verts[static_cast<std::size_t>(v)];
    ScheduledCopy sc;
    sc.ref = cv.ref;
    sc.node = cv.node;
    sc.event = static_cast<int>(event);
    sc.start = start;
    sc.finish = start + cv.duration;
    result.copies[static_cast<std::size_t>(v)] = sc;
    placed[static_cast<std::size_t>(v)] = 1;
    --remaining;
    const std::size_t n = static_cast<std::size_t>(cv.node.get());
    node_free[n] = sc.finish;
    // The node's free time moved: every `future` copy whose bound it
    // reached now starts at node_free.
    while (!future[n].empty() && future[n].top().bound <= sc.finish) {
      avail[n].push(future[n].top());
      future[n].pop();
      ++heap_pops;
    }
    result.node_order[n].push_back(v);
    result.makespan = std::max(result.makespan, sc.finish);
    if (log) log->placed_event[static_cast<std::size_t>(v)] = event;

    // Emit deliveries / enqueue transmissions for outgoing messages.
    for (MessageId mid : app_.outputs(cv.ref.process)) {
      const Message& m = app_.message(mid);
      const ProcessPlan& dp = assignment_.plan(m.dst);
      bool cross_node = false;
      for (const CopyPlan& d : dp.copies) {
        if (d.node != cv.node) cross_node = true;
      }
      if (cross_node) {
        txq.push(TxEntry{sc.finish, mid.get(), tx_seq++, cv.ref.copy,
                         cv.node});
      } else {
        deliver(m, sc.finish);
      }
    }
  }

  void commit_tx(const TxEntry& tx) {
    const Message& m = app_.message(MessageId{tx.msg});
    const Time ready_at = std::max(tx.ready, bus_free);
    const Time start = arch_.bus().next_slot_start(tx.sender, ready_at);
    const Time finish =
        arch_.bus().transmission_finish(tx.sender, ready_at, m.size);
    bus_free = finish;
    result.bus_order.push_back(static_cast<int>(result.messages.size()));
    result.messages.push_back(
        ScheduledMessage{MessageId{tx.msg}, tx.src_copy, tx.sender,
                         static_cast<int>(event), tx.ready, start, finish});
    deliver(m, finish);
  }

  /// Producer delivered message m at `delivery` to all consumer copies:
  /// update their readiness and dependency counters; a copy whose last
  /// dependency resolved joins the ready queue.
  void deliver(const Message& m, Time delivery) {
    const ProcessPlan& dp = assignment_.plan(m.dst);
    for (int dj = 0; dj < dp.copy_count(); ++dj) {
      const int dv = vertex_of(m.dst, dj);
      data_ready[static_cast<std::size_t>(dv)] =
          std::max(data_ready[static_cast<std::size_t>(dv)], delivery);
      if (--deps_left[static_cast<std::size_t>(dv)] == 0) {
        if (log) log->avail_event[static_cast<std::size_t>(dv)] = event + 1;
        file_ready(dv);
      }
    }
  }

  /// Called (log builds only) after popping the winning copy but before
  /// committing it: every other ready copy whose start equals the winner's
  /// joins a rank-broken tie at this event.  Per node: at node_free ==
  /// start every `avail` copy ties (and no `future` one: those start
  /// later); at node_free < start `avail` is empty (its head would start
  /// before the winner) and the `future` copies with bound == start tie --
  /// they sit at its top; at node_free > start nothing on the node ties.
  void record_start_ties(int winner, Time start) {
    std::vector<int> others;
    for (std::size_t n = 0; n < node_free.size(); ++n) {
      if (node_free[n] == start) {
        for (const ReadyEntry& e : avail[n].items()) others.push_back(e.vertex);
      } else if (node_free[n] < start && !future[n].empty() &&
                 future[n].top().bound == start) {
        assert(avail[n].empty());
        for (const ReadyEntry& e : future[n].items()) {
          if (e.bound == start) others.push_back(e.vertex);
        }
      }
    }
    if (others.empty()) return;
    ScheduleCheckpointLog::StartTie tie;
    tie.event = event;
    tie.winner = winner;
    tie.contenders = std::move(others);
    tie.contenders.push_back(winner);
    // Canonical order: the set of contenders is a pure function of the
    // tied state, but queue order depends on ranks -- which differ between
    // a base build and a resumed candidate recording its own log.
    // (tie.winner keeps the actual pick.)
    std::sort(tie.contenders.begin(), tie.contenders.end());
    log->ties.push_back(std::move(tie));
  }

  void take_snapshot() {
    ScheduleSnapshot s;
    s.event_index = event;
    s.remaining = remaining;
    s.bus_free = bus_free;
    s.tx_seq = tx_seq;
    s.node_free = node_free;
    s.placed = placed;
    s.deps_left = deps_left;
    s.data_ready = data_ready;
    // Canonical ready image: every ready copy with its start (node_free
    // in `avail`, its bound in `future`), sorted by (start, vertex) -- a
    // pure function of the semantic state (placed / deps / readiness /
    // node- and bus-free times), independent of queue layout.  Ranks are
    // NOT stored: they depend on the assignment, not on the placed prefix,
    // and are re-stamped by the restoring run -- which makes prefix
    // snapshots bitwise shareable between a base and a candidate with the
    // same copy layout.
    for (std::size_t n = 0; n < node_free.size(); ++n) {
      for (const ReadyEntry& e : avail[n].items()) {
        s.ready_heap.push_back(SnapshotReadyEntry{node_free[n], e.vertex});
      }
      for (const ReadyEntry& e : future[n].items()) {
        s.ready_heap.push_back(SnapshotReadyEntry{e.bound, e.vertex});
      }
    }
    std::sort(s.ready_heap.begin(), s.ready_heap.end(),
              [](const SnapshotReadyEntry& a, const SnapshotReadyEntry& b) {
                return a.start != b.start ? a.start < b.start
                                          : a.vertex < b.vertex;
              });
    s.tx_heap = txq.items();
    std::sort(s.tx_heap.begin(), s.tx_heap.end(),
              [](const TxEntry& a, const TxEntry& b) { return TxLess{}(a, b); });
    s.partial = result;
    ++snapshots_taken;
    snapshot_bytes_taken += snapshot_bytes(s);
    log->snapshots.append(std::move(s));
  }

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment& assignment_;

  // Static problem data.
  std::vector<CopyVertex> verts;
  std::vector<int> first_copy;
  std::vector<int> deps;  ///< per process: producer copies over its inputs
  std::vector<Time> rank;

  // Dynamic event-loop state.
  ListSchedule result;
  std::vector<char> placed;
  std::vector<int> deps_left;
  std::vector<Time> data_ready;
  std::vector<Time> node_free;
  Time bus_free = 0;
  /// Per node: ready copies whose bound node_free has reached.
  std::vector<BinaryMinHeap<ReadyEntry, RankLess>> avail;
  /// Per node: ready copies whose bound lies past node_free.
  std::vector<BinaryMinHeap<ReadyEntry, BoundLess>> future;
  BinaryMinHeap<TxEntry, TxLess> txq;
  int tx_seq = 0;
  std::size_t remaining = 0;
  std::size_t event = 0;
  std::size_t heap_pops = 0;
  std::size_t snapshots_taken = 0;       ///< snapshots materialized live
  std::size_t snapshot_bytes_taken = 0;  ///< their snapshot_bytes() total
  /// A resumed run that transplanted the base snapshot at exactly this
  /// event (by reference or remapped) suppresses the live re-record.
  std::size_t skip_snapshot_event = static_cast<std::size_t>(-1);

  ScheduleCheckpointLog* log = nullptr;
};

ListSchedule build_schedule(const Application& app, const Architecture& arch,
                            const PolicyAssignment& assignment,
                            ScheduleCheckpointLog* log,
                            int snapshot_interval) {
  Scheduler s(app, arch, assignment);
  s.build_static();
  if (log) {
    if (snapshot_interval <= 0) {
      snapshot_interval = interval_for_events(s.total_events());
    }
    log->snapshot_interval = snapshot_interval;
    s.log = log;
  }
  s.init_dynamic();
  return s.run();
}

}  // namespace

ListSchedule list_schedule(const Application& app, const Architecture& arch,
                           const PolicyAssignment& assignment) {
  return build_schedule(app, arch, assignment, nullptr, 0);
}

ListSchedule list_schedule(const Application& app, const Architecture& arch,
                           const PolicyAssignment& assignment,
                           ScheduleCheckpointLog& log, int snapshot_interval) {
  return build_schedule(app, arch, assignment, &log, snapshot_interval);
}

std::vector<Time> partial_critical_path_ranks(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment) {
  Scheduler s(app, arch, assignment);
  s.build_static();
  return std::move(s.rank);
}

int default_snapshot_interval(const Application& app,
                              const PolicyAssignment& assignment) {
  return interval_for_events(count_total_events(app, assignment));
}

ListSchedule list_schedule_resume(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& base,
                                  const ScheduleCheckpointLog& log,
                                  const PolicyAssignment& candidate,
                                  ProcessId moved,
                                  ListScheduleResumeStats* stats,
                                  ScheduleCheckpointLog* record) {
  return list_schedule_resume(app, arch, base, log, candidate,
                              std::vector<ProcessId>{moved}, stats, record);
}

ListSchedule list_schedule_resume(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& base,
                                  const ScheduleCheckpointLog& log,
                                  const PolicyAssignment& candidate,
                                  const std::vector<ProcessId>& moved,
                                  ListScheduleResumeStats* stats,
                                  ScheduleCheckpointLog* record) {
  ListScheduleResumeStats local;
  Scheduler s(app, arch, candidate);
  s.build_static();

  // Base-side vertex layout (the log's event indices are per base vertex).
  const int process_count = app.process_count();
  if (base.process_count() != process_count) {
    throw std::invalid_argument("base assignment size mismatch");
  }
  for (const ProcessId p : moved) {
    if (p.get() < 0 || p.get() >= process_count) {
      throw std::invalid_argument("moved process out of range");
    }
  }
  std::vector<int> base_first(static_cast<std::size_t>(process_count) + 1, 0);
  for (int i = 0; i < process_count; ++i) {
    base_first[static_cast<std::size_t>(i) + 1] =
        base_first[static_cast<std::size_t>(i)] +
        base.plan(ProcessId{i}).copy_count();
  }
  const int base_total = base_first[static_cast<std::size_t>(process_count)];
  if (log.avail_event.size() != static_cast<std::size_t>(base_total) ||
      log.placed_event.size() != static_cast<std::size_t>(base_total)) {
    throw std::invalid_argument(
        "checkpoint log not recorded from the base's copy layout");
  }

  // The moved set, deduplicated into ascending pid order.
  std::vector<char> is_moved(static_cast<std::size_t>(process_count), 0);
  for (const ProcessId p : moved) {
    is_moved[static_cast<std::size_t>(p.get())] = 1;
  }
  std::vector<ProcessId> mv;
  mv.reserve(moved.size());
  for (int i = 0; i < process_count; ++i) {
    if (is_moved[static_cast<std::size_t>(i)]) mv.push_back(ProcessId{i});
  }

  std::vector<int> base_proc(static_cast<std::size_t>(base_total), 0);
  for (int i = 0; i < process_count; ++i) {
    for (int bv = base_first[static_cast<std::size_t>(i)];
         bv < base_first[static_cast<std::size_t>(i) + 1]; ++bv) {
      base_proc[static_cast<std::size_t>(bv)] = i;
    }
  }
  const auto moved_vertex = [&](int bv) {
    return is_moved[static_cast<std::size_t>(
               base_proc[static_cast<std::size_t>(bv)])] != 0;
  };
  // Candidate vertex of a non-moved base vertex.  Monotone in bv: within
  // a process the offset is constant and the per-process blocks keep
  // their relative order, so remapped sorted lists stay sorted.
  const auto remap = [&](int bv) {
    assert(!moved_vertex(bv));
    const int bp = base_proc[static_cast<std::size_t>(bv)];
    return s.first_copy[static_cast<std::size_t>(bp)] +
           (bv - base_first[static_cast<std::size_t>(bp)]);
  };
  // When every moved process keeps its copy count the remap is the
  // identity and prefix snapshots are *bitwise* equal to what a
  // from-scratch candidate build would record (canonical, rank-free, and
  // free of moved-copy state before the first affected event) -- the
  // condition for sharing them by reference instead of copying.
  const bool layout_same = s.first_copy == base_first;

  // ---- first affected event --------------------------------------------
  //
  // The candidate run provably coincides with the base run up to (not
  // including) `limit`:
  //   * a moved process's copies cannot be selected before they are
  //     ready (avail_event; their readiness index is move-invariant
  //     because it is produced by unaffected producer deliveries),
  //   * a producer placement whose inbound-to-moved message flips between
  //     local delivery and a bus transmission behaves differently, so it
  //     must be replayed (placed_event),
  //   * a vertex whose priority rank changed (every ancestor of a moved
  //     process, typically) can win or lose start-time ties -- but ranks
  //     decide *only* such ties, and ready-queue entries are transplanted
  //     with the candidate's ranks below, so the resume point only has to
  //     precede the vertex's first recorded tie, not its readiness.
  // Everything else depends only on data the moves do not touch.  For a
  // batch of moves the bound is the min over the whole set.
  std::size_t limit = log.event_count;
  for (const ProcessId mp : mv) {
    const int p = mp.get();
    for (int bv = base_first[static_cast<std::size_t>(p)];
         bv < base_first[static_cast<std::size_t>(p) + 1]; ++bv) {
      limit = std::min(limit, log.avail_event[static_cast<std::size_t>(bv)]);
    }
    for (MessageId mid : app.inputs(mp)) {
      const Message& m = app.message(mid);
      // A moved producer's placements all happen at/after `limit` (its
      // copies' readiness bounds limit, and a copy is placed no earlier
      // than it becomes available), so they are replayed regardless of
      // how the message flips -- no check needed.
      if (is_moved[static_cast<std::size_t>(m.src.get())]) continue;
      const ProcessPlan& sp = base.plan(m.src);
      const ProcessPlan& base_dp = base.plan(mp);
      const ProcessPlan& cand_dp = candidate.plan(mp);
      for (int sj = 0; sj < sp.copy_count(); ++sj) {
        const NodeId sn = sp.copies[static_cast<std::size_t>(sj)].node;
        bool cross_base = false;
        for (const CopyPlan& d : base_dp.copies) {
          if (d.node != sn) cross_base = true;
        }
        bool cross_cand = false;
        for (const CopyPlan& d : cand_dp.copies) {
          if (d.node != sn) cross_cand = true;
        }
        if (cross_base != cross_cand) {
          limit = std::min(
              limit, log.placed_event[static_cast<std::size_t>(
                         base_first[static_cast<std::size_t>(m.src.get())] +
                         sj)]);
        }
      }
    }
  }
  // Re-judge every recorded start-time tie with the candidate's ranks (in
  // event order; ties at or past the current limit are replayed anyway).
  // The prefix before a tie is identical by induction, so the tie's
  // contender set is identical too -- only the rank-based pick can differ.
  for (const ScheduleCheckpointLog::StartTie& tie : log.ties) {
    if (tie.event >= limit) break;
    int best = -1;
    Time best_rank = 0;
    bool involves_moved = false;
    for (const int bv : tie.contenders) {
      if (moved_vertex(bv)) {
        // Unreachable while limit <= every moved process's readiness, but
        // be conservative if it ever is.
        involves_moved = true;
        break;
      }
      const int cv = remap(bv);
      const Time r = s.rank[static_cast<std::size_t>(cv)];
      // Same pick rule as the ready queue: max rank, then min vertex id
      // (remapping preserves the relative id order of non-moved vertices).
      if (best < 0 || r > best_rank || (r == best_rank && cv < best)) {
        best = cv;
        best_rank = r;
      }
    }
    if (involves_moved || best != remap(tie.winner)) {
      limit = tie.event;
      break;
    }
  }

  // ---- nearest usable snapshot -----------------------------------------
  const ScheduleSnapshot* snap = nullptr;
  for (auto it = log.snapshots.rbegin(); it != log.snapshots.rend(); ++it) {
    if ((*it)->event_index <= limit) {
      snap = it->get();
      break;
    }
  }

  if (record) {
    // Record-while-resuming: the replayed suffix records live through the
    // normal logging hooks; prefix content is transplanted from the base
    // log below (resume path) or recorded in full (fallback path).  The
    // recorded log inherits the base interval so its prefix snapshots can
    // be taken verbatim from the base's (both sit at multiples of it).
    // `record` must be a distinct object: clearing it in place would free
    // the very snapshots the transplant still reads.
    assert(record != &log);
    record->snapshot_interval = log.snapshot_interval;
    record->snapshots.clear();
    record->ties.clear();
    record->event_count = 0;
    s.log = record;
  }

  if (!snap || snap->event_index == 0) {
    s.init_dynamic();
  } else {
    // ---- transplant the snapshot into the candidate's vertex space ------
    const std::size_t cand_total = s.verts.size();
#ifndef NDEBUG
    for (const ProcessId mp : mv) {
      // Moved processes are untouched before the resume point.
      for (int bv = base_first[static_cast<std::size_t>(mp.get())];
           bv < base_first[static_cast<std::size_t>(mp.get()) + 1]; ++bv) {
        assert(!snap->placed[static_cast<std::size_t>(bv)]);
      }
    }
#endif

    s.result.first_copy = s.first_copy;
    s.result.messages = snap->partial.messages;
    s.result.bus_order = snap->partial.bus_order;
    s.result.makespan = snap->partial.makespan;
    if (layout_same) {
      // Identity remap: take the read-only prefix wholesale instead of
      // copying it element by element (moved copies are unplaced with
      // default slots, and their readiness is re-seeded below).
      s.result.copies = snap->partial.copies;
      s.result.node_order = snap->partial.node_order;
      s.placed = snap->placed;
      s.deps_left = snap->deps_left;
      s.data_ready = snap->data_ready;
    } else {
      s.result.copies.assign(cand_total, ScheduledCopy{});
      s.result.node_order.assign(static_cast<std::size_t>(arch.node_count()),
                                 {});
      for (std::size_t n = 0; n < snap->partial.node_order.size(); ++n) {
        for (int v : snap->partial.node_order[n]) {
          s.result.node_order[n].push_back(remap(v));
        }
      }
      s.placed.assign(cand_total, 0);
      s.deps_left.assign(cand_total, 0);
      s.data_ready.assign(cand_total, 0);
      for (int bv = 0; bv < base_total; ++bv) {
        if (moved_vertex(bv)) continue;
        const std::size_t cv = static_cast<std::size_t>(remap(bv));
        s.placed[cv] = snap->placed[static_cast<std::size_t>(bv)];
        if (s.placed[cv]) {
          s.result.copies[cv] =
              snap->partial.copies[static_cast<std::size_t>(bv)];
        }
        s.deps_left[cv] = snap->deps_left[static_cast<std::size_t>(bv)];
        s.data_ready[cv] = snap->data_ready[static_cast<std::size_t>(bv)];
      }
    }
    // All copies of one process share (deps_left, data_ready): deliveries
    // broadcast to every copy and the predecessor count is independent of
    // the process's own plan.  Seed every moved process's candidate copies
    // from its base copy 0, then adjust the consumers of moved producers
    // whose copy count changed (one dependency per producer copy; no
    // deliveries from moved producers happened yet).  The adjustment runs
    // after the seeding so a moved consumer of a moved producer is
    // corrected too.
    for (const ProcessId mp : mv) {
      const int bf = base_first[static_cast<std::size_t>(mp.get())];
      const int shared_deps = snap->deps_left[static_cast<std::size_t>(bf)];
      const Time shared_ready =
          snap->data_ready[static_cast<std::size_t>(bf)];
      const int count = candidate.plan(mp).copy_count();
      for (int j = 0; j < count; ++j) {
        const std::size_t cv = static_cast<std::size_t>(s.vertex_of(mp, j));
        s.deps_left[cv] = shared_deps;
        s.data_ready[cv] = shared_ready;
      }
    }
    for (const ProcessId mp : mv) {
      const int delta_p =
          candidate.plan(mp).copy_count() - base.plan(mp).copy_count();
      if (delta_p == 0) continue;
      for (MessageId mid : app.outputs(mp)) {
        const Message& m = app.message(mid);
        const int count = candidate.plan(m.dst).copy_count();
        for (int dj = 0; dj < count; ++dj) {
          s.deps_left[static_cast<std::size_t>(s.vertex_of(m.dst, dj))] +=
              delta_p;
        }
      }
    }

    s.node_free = snap->node_free;
    s.bus_free = snap->bus_free;
    s.tx_seq = snap->tx_seq;
    s.remaining =
        snap->remaining + (cand_total - static_cast<std::size_t>(base_total));
    s.event = snap->event_index;

    // Ready queues: file every restored ready copy by its restored bound
    // against the restored node_free, with the *candidate's* rank -- a
    // rank change only breaks future ties, which the resume-point bound
    // already guarantees did not occur in the kept prefix -- and re-derive
    // the moved processes' copies with the candidate's mapping and rank.
    for (const SnapshotReadyEntry& e : snap->ready_heap) {
      if (!moved_vertex(e.vertex)) s.file_ready(remap(e.vertex));
    }
    for (const ProcessId mp : mv) {
      if (s.deps_left[static_cast<std::size_t>(s.vertex_of(mp, 0))] != 0) {
        continue;
      }
      const int count = candidate.plan(mp).copy_count();
      for (int j = 0; j < count; ++j) s.file_ready(s.vertex_of(mp, j));
    }
    s.txq.assign(snap->tx_heap);

    if (record) {
      // ---- transplant the skipped prefix's log content ------------------
      //
      // Everything the replay does not re-execute is move-invariant by the
      // resume-point bound: event indices (avail/placed) of prefix events,
      // tie groups before the resume point (same contender sets -- a pure
      // function of the tied state -- and same winners, re-judged above),
      // and prefix snapshots (canonical, so equal to what a from-scratch
      // candidate build would record at the same event).  Entries whose
      // events fall at or past the resume point are overwritten by the
      // replay's own recording.
      record->rank = s.rank;
      if (layout_same) {
        // Identity remap: per-vertex indices transplant wholesale.  Moved
        // copies' base values are correct too -- their readiness index is
        // shared per process and move-invariant, and their placed entries
        // (base suffix placements) are overwritten when the replay places
        // them.
        record->avail_event = log.avail_event;
        record->placed_event = log.placed_event;
      } else {
        record->avail_event.assign(cand_total, 0);
        record->placed_event.assign(cand_total, 0);
        for (int bv = 0; bv < base_total; ++bv) {
          if (moved_vertex(bv)) continue;
          const std::size_t cv = static_cast<std::size_t>(remap(bv));
          record->avail_event[cv] =
              log.avail_event[static_cast<std::size_t>(bv)];
          record->placed_event[cv] =
              log.placed_event[static_cast<std::size_t>(bv)];
        }
        // All copies of one process share their readiness index.  When a
        // moved process's last inbound delivery happened in the prefix,
        // the replay never re-delivers it, so the index must come from the
        // base; a delivery during replay overwrites it.
        for (const ProcessId mp : mv) {
          const std::size_t shared_avail =
              log.avail_event[static_cast<std::size_t>(
                  base_first[static_cast<std::size_t>(mp.get())])];
          const int count = candidate.plan(mp).copy_count();
          for (int j = 0; j < count; ++j) {
            record->avail_event[static_cast<std::size_t>(
                s.vertex_of(mp, j))] = shared_avail;
          }
        }
      }
      for (const ScheduleCheckpointLog::StartTie& tie : log.ties) {
        if (tie.event >= snap->event_index) break;
        if (layout_same) {
          record->ties.push_back(tie);
          continue;
        }
        ScheduleCheckpointLog::StartTie t;
        t.event = tie.event;
        t.winner = remap(tie.winner);
        t.contenders.reserve(tie.contenders.size());
        // Contenders are sorted by vertex id and the remap is monotone.
        for (const int bv : tie.contenders) t.contenders.push_back(remap(bv));
        record->ties.push_back(std::move(t));
      }
      // Prefix snapshots, including the resume-point snapshot itself (the
      // live re-record at that event is suppressed): shared by reference
      // when the copy layout is unchanged, materialized remapped
      // otherwise.  A shared snapshot must predate `limit` -- at
      // event_index == limit a moved copy can already sit in the ready
      // image with a start key that depends on its (changed) plan; the
      // materialized rebuild below recomputes the ready image from the
      // transplanted semantic state, so it has no such restriction.
      for (const auto& bs_ref : log.snapshots) {
        const ScheduleSnapshot& bs = *bs_ref;
        if (bs.event_index > snap->event_index) break;
        if (layout_same) {
          if (bs.event_index >= limit) break;
          record->snapshots.share(bs_ref);
          ++local.snapshots_shared;
          local.snapshot_bytes_shared += snapshot_bytes(bs);
          if (bs.event_index == snap->event_index) {
            s.skip_snapshot_event = snap->event_index;
          }
          continue;
        }
        ScheduleSnapshot ns;
        ns.event_index = bs.event_index;
        ns.remaining =
            bs.remaining + (cand_total - static_cast<std::size_t>(base_total));
        ns.bus_free = bs.bus_free;
        ns.tx_seq = bs.tx_seq;
        ns.node_free = bs.node_free;
        ns.placed.assign(cand_total, 0);
        ns.deps_left.assign(cand_total, 0);
        ns.data_ready.assign(cand_total, 0);
        ns.partial.first_copy = s.first_copy;
        ns.partial.copies.assign(cand_total, ScheduledCopy{});
        for (int bv = 0; bv < base_total; ++bv) {
          if (moved_vertex(bv)) continue;
          const std::size_t cv = static_cast<std::size_t>(remap(bv));
          ns.placed[cv] = bs.placed[static_cast<std::size_t>(bv)];
          ns.deps_left[cv] = bs.deps_left[static_cast<std::size_t>(bv)];
          ns.data_ready[cv] = bs.data_ready[static_cast<std::size_t>(bv)];
          ns.partial.copies[cv] =
              bs.partial.copies[static_cast<std::size_t>(bv)];
        }
        // Same seeding rules as the dynamic-state transplant above.
        for (const ProcessId mp : mv) {
          const int bf = base_first[static_cast<std::size_t>(mp.get())];
          const int snap_deps = bs.deps_left[static_cast<std::size_t>(bf)];
          const Time snap_ready =
              bs.data_ready[static_cast<std::size_t>(bf)];
          const int count = candidate.plan(mp).copy_count();
          for (int j = 0; j < count; ++j) {
            const std::size_t cv =
                static_cast<std::size_t>(s.vertex_of(mp, j));
            ns.deps_left[cv] = snap_deps;
            ns.data_ready[cv] = snap_ready;
          }
        }
        for (const ProcessId mp : mv) {
          const int delta_p =
              candidate.plan(mp).copy_count() - base.plan(mp).copy_count();
          if (delta_p == 0) continue;
          for (MessageId mid : app.outputs(mp)) {
            const Message& m = app.message(mid);
            const int count = candidate.plan(m.dst).copy_count();
            for (int dj = 0; dj < count; ++dj) {
              ns.deps_left[static_cast<std::size_t>(
                  s.vertex_of(m.dst, dj))] += delta_p;
            }
          }
        }
        ns.partial.node_order.assign(
            static_cast<std::size_t>(arch.node_count()), {});
        for (std::size_t n = 0; n < bs.partial.node_order.size(); ++n) {
          for (const int v : bs.partial.node_order[n]) {
            ns.partial.node_order[n].push_back(remap(v));
          }
        }
        ns.partial.messages = bs.partial.messages;
        ns.partial.bus_order = bs.partial.bus_order;
        ns.partial.makespan = bs.partial.makespan;
        // Canonical ready image, rebuilt from the transplanted semantic
        // state (ready == available and unplaced).
        for (std::size_t cv = 0; cv < cand_total; ++cv) {
          if (ns.placed[cv] || ns.deps_left[cv] != 0) continue;
          const Time start = std::max(
              {ns.data_ready[cv], s.verts[cv].release,
               ns.node_free[static_cast<std::size_t>(
                   s.verts[cv].node.get())]});
          ns.ready_heap.push_back(
              SnapshotReadyEntry{start, static_cast<int>(cv)});
        }
        std::sort(ns.ready_heap.begin(), ns.ready_heap.end(),
                  [](const SnapshotReadyEntry& a, const SnapshotReadyEntry& b) {
                    return a.start != b.start ? a.start < b.start
                                              : a.vertex < b.vertex;
                  });
        ns.tx_heap = bs.tx_heap;  // canonical and move-invariant (no moved
                                  // producer placed, senders untouched)
        ++local.snapshots_copied;
        local.snapshot_bytes_copied += snapshot_bytes(ns);
        if (bs.event_index == snap->event_index) {
          s.skip_snapshot_event = snap->event_index;
        }
        record->snapshots.append(std::move(ns));
      }
    }

    local.resumed = true;
    local.events_resumed = snap->event_index;
  }

  ListSchedule out = s.run();
  local.events_total = s.event;
  local.events_replayed = s.event - local.events_resumed;
  local.heap_pops = s.heap_pops;
  local.snapshots_copied += s.snapshots_taken;
  local.snapshot_bytes_copied += s.snapshot_bytes_taken;
  if (stats) *stats = local;
  return out;
}

}  // namespace ftes
