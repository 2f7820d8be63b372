#include "sched/list_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
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

// `event` occupies alignment padding: stamping commit indices costs no
// memory.
static_assert(sizeof(ScheduledCopy) == 32 && sizeof(ScheduledMessage) == 40);

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

/// Whether a message from a copy on `node` to a consumer planned as
/// `consumer` needs the bus: some consumer copy runs on another node.
bool crosses_bus(const ProcessPlan& consumer, NodeId node) {
  for (const CopyPlan& d : consumer.copies) {
    if (d.node != node) return true;
  }
  return false;
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

/// Pending-transmission entry.
struct TxEntry {
  Time ready = 0;
  std::int32_t msg = -1;
  int src_event = 0;  ///< commit index of the producer copy
  int src_copy = 0;
  NodeId sender;
};

/// Min order of the pending-transmission queue: earliest ready, then lowest
/// message id, then producer commit index -- the historical FIFO-in-ready-
/// order bus policy of the linear minimum search.  A copy enqueues all its
/// transmissions at its own commit and sends each message once, so the
/// producer's commit index orders equal (ready, message) entries by enqueue
/// order.
struct TxLess {
  bool operator()(const TxEntry& a, const TxEntry& b) const {
    if (a.ready != b.ready) return a.ready < b.ready;
    if (a.msg != b.msg) return a.msg < b.msg;
    return a.src_event < b.src_event;
  }
};

/// Maps a base schedule's copy vertices to a candidate's when one process's
/// plan changed: that process's base vertices are the range [lo, hi), and
/// every later vertex shifts by the change in its copy count.  Monotone
/// outside the range, so vertex order is preserved.
struct VertexShift {
  int lo = 0;
  int hi = 0;
  int delta = 0;
  [[nodiscard]] bool moved(int bv) const { return bv >= lo && bv < hi; }
  [[nodiscard]] int operator()(int bv) const {
    return bv < lo ? bv : bv + delta;
  }
};

/// One list-scheduling run: static problem data (copy vertices, their own
/// rank terms, dependency counts, priorities) plus the dynamic event-loop
/// state.  The static data is either computed from the assignment (full
/// build) or derived from a base run's log (resume); the dynamic state
/// either starts fresh or is restored from the base run's schedule up to a
/// given event.
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
    const std::size_t process_count =
        static_cast<std::size_t>(app_.process_count());
    first_copy.assign(process_count + 1, 0);
    for (std::size_t p = 0; p < process_count; ++p) {
      first_copy[p + 1] =
          first_copy[p] +
          assignment_.plan(ProcessId{static_cast<std::int32_t>(p)})
              .copy_count();
    }
    verts.reserve(static_cast<std::size_t>(first_copy.back()));
    own.reserve(static_cast<std::size_t>(first_copy.back()));
    for (std::size_t p = 0; p < process_count; ++p) {
      append_copies(ProcessId{static_cast<std::int32_t>(p)});
    }

    // Dependency counts: every copy of a consumer waits for one delivery
    // per (input message, producer copy), so the count is per process.
    deps.assign(process_count, 0);
    for (const Message& m : app_.messages()) {
      deps[static_cast<std::size_t>(m.dst.get())] +=
          assignment_.plan(m.src).copy_count();
    }

    // Ranks in rank order: Kahn on the reversed process graph -- a process
    // is ranked once every consumer is.
    rank.resize(verts.size());
    std::vector<Time> best(process_count, 0);
    std::vector<int> unranked_outputs(process_count, 0);
    order.reserve(process_count);
    for (std::size_t p = 0; p < process_count; ++p) {
      unranked_outputs[p] = static_cast<int>(
          app_.outputs(ProcessId{static_cast<std::int32_t>(p)}).size());
      if (unranked_outputs[p] == 0) {
        order.push_back(static_cast<std::int32_t>(p));
      }
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
      rank_copies(order[head], best);
      for (MessageId mid : app_.inputs(ProcessId{order[head]})) {
        const std::size_t src =
            static_cast<std::size_t>(app_.message(mid).src.get());
        if (--unranked_outputs[src] == 0) {
          order.push_back(static_cast<std::int32_t>(src));
        }
      }
    }
    if (order.size() != process_count) {
      throw std::invalid_argument("application graph has a cycle");
    }
  }

  /// Derives the static data from `log`, recorded from `base` (this run's
  /// assignment but for process `moved`'s plan): every other process's
  /// copies keep the base's vertices and own rank terms through the
  /// returned shift, only the moved process's copies are computed, each
  /// consumer of it shifts its dependency count by the change in copy
  /// count, and the ranks come from one pass over the recorded order.
  /// Throws std::invalid_argument on the inputs list_schedule_resume
  /// rejects.
  VertexShift derive_static(const PolicyAssignment& base,
                            const ScheduleCheckpointLog& log,
                            ProcessId moved) {
    const int process_count = app_.process_count();
    if (assignment_.process_count() != process_count) {
      throw std::invalid_argument("assignment size mismatch");
    }
    if (base.process_count() != process_count) {
      throw std::invalid_argument("base assignment size mismatch");
    }
    if (moved.get() < 0 || moved.get() >= process_count) {
      throw std::invalid_argument("moved process out of range");
    }
    // The log's per-vertex data is indexed by the base's copy layout, its
    // node orders by `arch`'s nodes, its per-process data by process.
    const ListSchedule& sched = log.schedule;
    const std::size_t processes = static_cast<std::size_t>(process_count);
    bool layout_matches =
        sched.first_copy.size() == processes + 1 &&
        sched.first_copy.front() == 0 &&
        sched.node_order.size() == static_cast<std::size_t>(arch_.node_count());
    for (int i = 0; layout_matches && i < process_count; ++i) {
      const std::size_t p = static_cast<std::size_t>(i);
      layout_matches = sched.first_copy[p + 1] - sched.first_copy[p] ==
                       base.plan(ProcessId{i}).copy_count();
    }
    if (!layout_matches ||
        sched.copies.size() !=
            static_cast<std::size_t>(sched.first_copy.back()) ||
        log.avail_event.size() != sched.copies.size()) {
      throw std::invalid_argument(
          "checkpoint log not recorded from the base's copy layout");
    }
    if (log.own_rank.size() != sched.copies.size() ||
        log.deps.size() != processes || log.rank_order.size() != processes) {
      throw std::invalid_argument(
          "checkpoint log's static data does not match its copy layout");
    }

    const std::size_t mp = static_cast<std::size_t>(moved.get());
    const int lo = sched.first_copy[mp];
    const int hi = sched.first_copy[mp + 1];
    // The base's vertices of processes [first, last), each with its
    // process's release.
    const auto keep = [&](std::size_t first, std::size_t last) {
      for (std::size_t p = first; p < last; ++p) {
        const Time release =
            app_.process(ProcessId{static_cast<std::int32_t>(p)}).release;
        for (int bv = sched.first_copy[p]; bv < sched.first_copy[p + 1];
             ++bv) {
          const ScheduledCopy& sc = sched.copies[static_cast<std::size_t>(bv)];
          verts.push_back(
              CopyVertex{sc.ref, sc.node, sc.finish - sc.start, release});
        }
      }
    };
    const std::size_t copies = sched.copies.size() -
                               static_cast<std::size_t>(hi - lo) +
                               assignment_.plan(moved).copies.size();
    verts.reserve(copies);
    own.reserve(copies);
    keep(0, mp);
    own.assign(log.own_rank.begin(), log.own_rank.begin() + lo);
    append_copies(moved);
    const VertexShift shift{lo, hi, static_cast<int>(verts.size()) - hi};
    keep(mp + 1, processes);
    own.insert(own.end(), log.own_rank.begin() + hi, log.own_rank.end());

    first_copy = sched.first_copy;
    for (std::size_t p = mp + 1; p <= processes; ++p) {
      first_copy[p] += shift.delta;
    }
    deps = log.deps;
    for (MessageId mid : app_.outputs(moved)) {
      deps[static_cast<std::size_t>(app_.message(mid).dst.get())] +=
          shift.delta;
    }
    rank.resize(verts.size());
    std::vector<Time> best(processes, 0);
    for (const std::int32_t p : log.rank_order) rank_copies(p, best);
    return shift;
  }

  /// Appends the copy vertices of process `pid` under this run's plan and
  /// their own rank terms.  The bus term is the worst-case duration of the
  /// heaviest output: for a fixed sender, worst_case_duration is
  /// nondecreasing in size (and every size <= 0 takes one frame, like
  /// size 0); it approximates communication by the worst case, exact slot
  /// timing is resolved during placement.
  void append_copies(ProcessId pid) {
    const ProcessPlan& plan = assignment_.plan(pid);
    if (plan.copies.empty()) {
      throw std::invalid_argument("plan without copies");
    }
    const std::vector<MessageId>& outputs = app_.outputs(pid);
    std::int64_t heaviest = 0;
    for (MessageId mid : outputs) {
      heaviest = std::max(heaviest, app_.message(mid).size);
    }
    for (int j = 0; j < plan.copy_count(); ++j) {
      const CopyPlan& copy = plan.copies[static_cast<std::size_t>(j)];
      if (!copy.node.valid()) throw std::invalid_argument("unmapped copy");
      const Time duration =
          CopyRecovery::of(app_.process(pid), copy).run_time(0);
      verts.push_back(CopyVertex{CopyRef{pid, j}, copy.node, duration,
                                 app_.process(pid).release});
      own.push_back(duration +
                    (outputs.empty()
                         ? 0
                         : arch_.bus().worst_case_duration(copy.node,
                                                           heaviest)));
    }
  }

  /// The ranks of partial_critical_path_ranks for process p's copies (see
  /// list_scheduler.h for why the process-level pass is exact): each
  /// copy's own term plus the highest rank among its consumers' copies.
  /// `best` holds the highest copy rank of every process ranked so far;
  /// every consumer of p must be among them.
  void rank_copies(std::int32_t p, std::vector<Time>& best) {
    Time downstream = 0;
    for (MessageId mid : app_.outputs(ProcessId{p})) {
      downstream = std::max(
          downstream,
          best[static_cast<std::size_t>(app_.message(mid).dst.get())]);
    }
    Time& process_best = best[static_cast<std::size_t>(p)];
    for (int v = first_copy[static_cast<std::size_t>(p)];
         v < first_copy[static_cast<std::size_t>(p) + 1]; ++v) {
      const Time r = downstream + own[static_cast<std::size_t>(v)];
      rank[static_cast<std::size_t>(v)] = r;
      process_best = std::max(process_best, r);
    }
  }

  // ---- dynamic state ----------------------------------------------------

  /// Restores the state this run reaches before event `limit` from
  /// `base`, the schedule of a run that coincides with this one up to there
  /// (`shift` maps its copy vertices to this run's; no copy of the moved
  /// process commits before `limit`).  The commit indices say what had
  /// happened: the copies and transmissions committed so far, the
  /// transmissions their producers had enqueued, and -- counted per
  /// consumer process, since every copy of a process waits for the same
  /// deliveries -- the readiness of the rest.  Restoring the empty prefix
  /// (limit 0) is a full build's initial state.
  void restore(const ListSchedule& base, std::size_t limit,
               const VertexShift& shift) {
    const std::size_t process_count =
        static_cast<std::size_t>(app_.process_count());
    const std::size_t node_count = static_cast<std::size_t>(arch_.node_count());
    result.copies.assign(verts.size(), ScheduledCopy{});
    result.first_copy = first_copy;
    result.node_order.assign(node_count, {});
    node_free.assign(node_count, 0);
    remaining = verts.size();
    event = limit;
    std::vector<int> delivered(process_count, 0);
    std::vector<Time> latest(process_count, 0);
    const auto count_delivery = [&](ProcessId dst, Time at) {
      const std::size_t p = static_cast<std::size_t>(dst.get());
      ++delivered[p];
      latest[p] = std::max(latest[p], at);
    };

    // Committed copies: a node commits its copies in start order, so the
    // ones before `limit` are a prefix of its order.
    for (std::size_t n = 0; n < base.node_order.size(); ++n) {
      result.node_order[n].reserve(base.node_order[n].size());
      for (const int bv : base.node_order[n]) {
        const ScheduledCopy& sc = base.copies[static_cast<std::size_t>(bv)];
        if (static_cast<std::size_t>(sc.event) >= limit) break;
        assert(!shift.moved(bv));
        const int v = shift(bv);
        result.copies[static_cast<std::size_t>(v)] = sc;
        result.node_order[n].push_back(v);
        node_free[n] = sc.finish;
        result.makespan = std::max(result.makespan, sc.finish);
        --remaining;
        for (MessageId mid : app_.outputs(sc.ref.process)) {
          const Message& m = app_.message(mid);
          if (!crosses_bus(assignment_.plan(m.dst), sc.node)) {
            count_delivery(m.dst, sc.finish);
          }
        }
      }
    }

    // Transmissions, in commit order: the committed ones, then the pending
    // ones -- those whose producer copy has committed.
    result.messages.reserve(base.messages.size());
    result.bus_order.reserve(base.messages.size());
    std::vector<TxEntry> pending;
    for (std::size_t i = 0; i < base.messages.size(); ++i) {
      const ScheduledMessage& sm = base.messages[i];
      const Message& m = app_.message(sm.msg);
      if (static_cast<std::size_t>(sm.event) < limit) {
        result.bus_order.push_back(static_cast<int>(i));
        result.messages.push_back(sm);
        bus_free = sm.finish;
        count_delivery(m.dst, sm.finish);
        continue;
      }
      const std::size_t producer = static_cast<std::size_t>(
          base.first_copy[static_cast<std::size_t>(m.src.get())] +
          sm.src_copy);
      const int src_event = base.copies[producer].event;
      if (static_cast<std::size_t>(src_event) < limit) {
        pending.push_back(
            TxEntry{sm.ready, sm.msg.get(), src_event, sm.src_copy, sm.sender});
      }
    }
    txq.assign(std::move(pending));

    // Readiness from the deliveries so far, and the ready queues: every
    // unplaced copy with no missing dependency, filed by its (this run's)
    // rank and bound against the restored node free times.
    deps_left.assign(verts.size(), 0);
    data_ready.assign(verts.size(), 0);
    for (std::size_t v = 0; v < verts.size(); ++v) {
      const std::size_t p =
          static_cast<std::size_t>(verts[v].ref.process.get());
      deps_left[v] = deps[p] - delivered[p];
      data_ready[v] = latest[p];
      if (deps_left[v] == 0 && result.copies[v].event < 0) {
        file_ready(static_cast<int>(v));
      }
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

    // Emit deliveries / enqueue transmissions for outgoing messages.
    for (MessageId mid : app_.outputs(cv.ref.process)) {
      const Message& m = app_.message(mid);
      if (crosses_bus(assignment_.plan(m.dst), cv.node)) {
        txq.push(TxEntry{sc.finish, mid.get(), sc.event, cv.ref.copy,
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
    const std::size_t p = static_cast<std::size_t>(m.dst.get());
    for (int dv = first_copy[p]; dv < first_copy[p + 1]; ++dv) {
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
    // Canonical order, as the linear-scan reference enumerates them
    // (tie.winner keeps the actual pick).
    std::sort(tie.contenders.begin(), tie.contenders.end());
    log->ties.push_back(std::move(tie));
  }

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment& assignment_;

  // Static problem data.
  std::vector<CopyVertex> verts;
  std::vector<Time> own;  ///< per vertex: own rank term (see the log)
  std::vector<int> first_copy;
  std::vector<int> deps;  ///< per process: producer copies over its inputs
  std::vector<std::int32_t> order;  ///< rank order (full builds only)
  std::vector<Time> rank;

  // Dynamic event-loop state.
  ListSchedule result;
  std::vector<int> deps_left;
  std::vector<Time> data_ready;
  std::vector<Time> node_free;
  Time bus_free = 0;
  /// Per node: ready copies whose bound node_free has reached.
  std::vector<BinaryMinHeap<ReadyEntry, RankLess>> avail;
  /// Per node: ready copies whose bound lies past node_free.
  std::vector<BinaryMinHeap<ReadyEntry, BoundLess>> future;
  BinaryMinHeap<TxEntry, TxLess> txq;
  std::size_t remaining = 0;
  std::size_t event = 0;
  std::size_t heap_pops = 0;

  ScheduleCheckpointLog* log = nullptr;
};

}  // namespace

ListSchedule list_schedule(const Application& app, const Architecture& arch,
                           const PolicyAssignment& assignment) {
  Scheduler s(app, arch, assignment);
  s.build_static();
  s.restore(ListSchedule{}, 0, VertexShift{});
  return s.run();
}

const ListSchedule& list_schedule(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& assignment,
                                  ScheduleCheckpointLog& log) {
  Scheduler s(app, arch, assignment);
  s.build_static();
  s.log = &log;
  log.avail_event.assign(s.verts.size(), 0);
  log.ties.clear();
  log.own_rank = std::move(s.own);
  log.deps = s.deps;
  log.rank_order = std::move(s.order);
  s.restore(ListSchedule{}, 0, VertexShift{});
  log.schedule = s.run();
  return log.schedule;
}

std::vector<Time> partial_critical_path_ranks(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment) {
  Scheduler s(app, arch, assignment);
  s.build_static();
  return std::move(s.rank);
}

ListSchedule list_schedule_resume(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& base,
                                  const ScheduleCheckpointLog& log,
                                  const PolicyAssignment& candidate,
                                  ProcessId moved,
                                  ListScheduleResumeStats* stats) {
  Scheduler s(app, arch, candidate);
  const VertexShift shift = s.derive_static(base, log, moved);
  const ListSchedule& sched = log.schedule;

  // ---- first affected event --------------------------------------------
  //
  // The candidate run provably coincides with the base run up to (not
  // including) `limit`:
  //   * the moved process's copies cannot be selected before they are
  //     ready (avail_event; their readiness index is move-invariant
  //     because it is produced by unaffected producer deliveries),
  //   * a producer placement whose message to the moved process flips
  //     between local delivery and a bus transmission behaves differently,
  //     so it must be replayed,
  //   * a vertex whose priority rank changed (every ancestor of the moved
  //     process, typically) can win or lose start-time ties -- but ranks
  //     decide *only* such ties, and the restored ready queues carry the
  //     candidate's ranks, so the resume point only has to precede the
  //     vertex's first recorded tie, not its readiness.
  // Everything else depends only on data the move does not touch.
  std::size_t limit = sched.copies.size() + sched.messages.size();
  for (int bv = shift.lo; bv < shift.hi; ++bv) {
    limit = std::min(limit, log.avail_event[static_cast<std::size_t>(bv)]);
  }
  for (MessageId mid : app.inputs(moved)) {
    const Message& m = app.message(mid);
    const ProcessPlan& sp = base.plan(m.src);
    for (int sj = 0; sj < sp.copy_count(); ++sj) {
      const NodeId sn = sp.copies[static_cast<std::size_t>(sj)].node;
      if (crosses_bus(base.plan(moved), sn) !=
          crosses_bus(candidate.plan(moved), sn)) {
        const ScheduledCopy& producer =
            sched.copies[static_cast<std::size_t>(
                sched.first_copy[static_cast<std::size_t>(m.src.get())] +
                sj)];
        limit = std::min(limit, static_cast<std::size_t>(producer.event));
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
      if (shift.moved(bv)) {
        // Unreachable while limit <= the moved process's readiness, but be
        // conservative if it ever is.
        involves_moved = true;
        break;
      }
      const int cv = shift(bv);
      const Time r = s.rank[static_cast<std::size_t>(cv)];
      // Same pick rule as the ready queue: max rank, then min vertex id
      // (the shift preserves the relative id order of unmoved vertices).
      if (best < 0 || r > best_rank || (r == best_rank && cv < best)) {
        best = cv;
        best_rank = r;
      }
    }
    if (involves_moved || best != shift(tie.winner)) {
      limit = tie.event;
      break;
    }
  }

  s.restore(sched, limit, shift);
  ListSchedule out = s.run();
  if (stats) {
    stats->resumed = limit > 0;
    stats->events_total = s.event;
    stats->events_resumed = limit;
    stats->events_replayed = s.event - limit;
    stats->heap_pops = s.heap_pops;
  }
  return out;
}

ScheduleStaticData derive_static_data(const Application& app,
                                      const Architecture& arch,
                                      const PolicyAssignment& base,
                                      const ScheduleCheckpointLog& log,
                                      const PolicyAssignment& candidate,
                                      ProcessId moved) {
  Scheduler s(app, arch, candidate);
  (void)s.derive_static(base, log, moved);
  ScheduleStaticData data;
  data.duration.reserve(s.verts.size());
  for (const CopyVertex& cv : s.verts) data.duration.push_back(cv.duration);
  data.rank = std::move(s.rank);
  data.deps = std::move(s.deps);
  return data;
}

}  // namespace ftes
