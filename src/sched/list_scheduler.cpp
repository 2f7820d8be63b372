#include "sched/list_scheduler.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "fault/recovery.h"
#include "sched/wcsl.h"
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

/// The row law on max(a, b) into `out` (b may be null): the row of an event
/// whose predecessors' rows have been folded into `a` and `b`.  Returns
/// L(e, k).
template <class K>
Time commit_row(const WcslWeight& w, Time release, const Time* a,
                const Time* b, Time* out, K k_arg) {
  const int k = k_arg;
  if (b) {
    for (int i = 0; i <= k; ++i) out[i] = std::max(a[i], b[i]);
  } else {
    std::copy(a, a + k + 1, out);
  }
  wcsl_row_law(w, release, k_arg, out);
  return out[k];
}

/// dst = max(dst, src), entry by entry.
template <class K>
void raise_row(Time* dst, const Time* src, K k_arg) {
  const int k = k_arg;
  for (int i = 0; i <= k; ++i) dst[i] = std::max(dst[i], src[i]);
}

/// One list-scheduling run at a time: static problem data (copy vertices,
/// their own rank terms, dependency counts, priorities) plus the dynamic
/// event-loop state, and the WCSL rows at commit when a run asks for them.
/// The static data is either computed from the assignment (full build) or
/// derived from a base run's log (resume); the dynamic state either starts
/// fresh or is restored from the base run's schedule up to a given event.
/// Every buffer is cleared, not rebuilt, from run to run.  Internal
/// linkage lets the compiler inline the commit steps into the event loop.
class Scheduler {
 public:
  Scheduler(const Application& app, const Architecture& arch)
      : app_(app),
        arch_(arch),
        avail(static_cast<std::size_t>(arch.node_count())),
        future(static_cast<std::size_t>(arch.node_count())) {}

  // ---- static problem data ---------------------------------------------

  void build_static(const PolicyAssignment& assignment) {
    assignment_ = &assignment;
    if (assignment.process_count() != app_.process_count()) {
      throw std::invalid_argument("assignment size mismatch");
    }
    const std::size_t process_count =
        static_cast<std::size_t>(app_.process_count());
    first_copy.assign(process_count + 1, 0);
    for (std::size_t p = 0; p < process_count; ++p) {
      first_copy[p + 1] =
          first_copy[p] +
          assignment.plan(ProcessId{static_cast<std::int32_t>(p)})
              .copy_count();
    }
    verts.clear();
    own.clear();
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
          assignment.plan(m.src).copy_count();
    }

    // Ranks in rank order: Kahn on the reversed process graph -- a process
    // is ranked once every consumer is.
    rank.resize(verts.size());
    best.assign(process_count, 0);
    unranked_outputs.assign(process_count, 0);
    order.clear();
    order.reserve(process_count);
    for (std::size_t p = 0; p < process_count; ++p) {
      unranked_outputs[p] = static_cast<int>(
          app_.outputs(ProcessId{static_cast<std::int32_t>(p)}).size());
      if (unranked_outputs[p] == 0) {
        order.push_back(static_cast<std::int32_t>(p));
      }
    }
    for (std::size_t head = 0; head < order.size(); ++head) {
      rank_copies(order[head]);
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

  /// Derives the static data of `candidate` from `log`, recorded from
  /// `base` (`candidate` but for process `moved`'s plan): every other
  /// process's copies keep the base's vertices and own rank terms through
  /// the returned shift, only the moved process's copies are computed,
  /// each consumer of it shifts its dependency count by the change in copy
  /// count, and the ranks come from one pass over the recorded order.
  /// Throws std::invalid_argument on the inputs list_schedule_resume
  /// rejects.
  VertexShift derive_static(const PolicyAssignment& base,
                            const ScheduleCheckpointLog& log,
                            const PolicyAssignment& candidate,
                            ProcessId moved) {
    assignment_ = &candidate;
    const int process_count = app_.process_count();
    if (candidate.process_count() != process_count) {
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
                               candidate.plan(moved).copies.size();
    verts.clear();
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
    best.assign(processes, 0);
    for (const std::int32_t p : log.rank_order) rank_copies(p);
    return shift;
  }

  /// Appends the copy vertices of process `pid` under this run's plan and
  /// their own rank terms.  The bus term is the worst-case duration of the
  /// heaviest output: for a fixed sender, worst_case_duration is
  /// nondecreasing in size (and every size <= 0 takes one frame, like
  /// size 0); it approximates communication by the worst case, exact slot
  /// timing is resolved during placement.
  void append_copies(ProcessId pid) {
    const ProcessPlan& plan = assignment_->plan(pid);
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
  void rank_copies(std::int32_t p) {
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

  /// The first event a move can affect, for a run whose static data
  /// derive_static(base, log, moved) derived with `shift`.  The candidate
  /// run provably coincides with the base run up to (not including) it:
  ///   * the moved process's copies cannot be selected before they are
  ///     ready (avail_event; their readiness index is move-invariant
  ///     because it is produced by unaffected producer deliveries),
  ///   * a producer placement whose message to the moved process flips
  ///     between local delivery and a bus transmission behaves
  ///     differently, so it must be replayed,
  ///   * a vertex whose priority rank changed (every ancestor of the moved
  ///     process, typically) can win or lose start-time ties -- but ranks
  ///     decide *only* such ties, and the restored ready queues carry the
  ///     candidate's ranks, so the resume point only has to precede the
  ///     vertex's first recorded tie, not its readiness.
  /// Everything else depends only on data the move does not touch.
  std::size_t resume_limit(const PolicyAssignment& base,
                           const ScheduleCheckpointLog& log, ProcessId moved,
                           const VertexShift& shift) const {
    const ListSchedule& sched = log.schedule;
    std::size_t limit = sched.copies.size() + sched.messages.size();
    for (int bv = shift.lo; bv < shift.hi; ++bv) {
      limit = std::min(limit, log.avail_event[static_cast<std::size_t>(bv)]);
    }
    for (MessageId mid : app_.inputs(moved)) {
      const Message& m = app_.message(mid);
      const ProcessPlan& sp = base.plan(m.src);
      for (int sj = 0; sj < sp.copy_count(); ++sj) {
        const NodeId sn = sp.copies[static_cast<std::size_t>(sj)].node;
        if (crosses_bus(base.plan(moved), sn) !=
            crosses_bus(assignment_->plan(moved), sn)) {
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
    // contender set is identical too -- only the rank-based pick can
    // differ.
    for (const ScheduleCheckpointLog::StartTie& tie : log.ties) {
      if (tie.event >= limit) break;
      int pick = -1;
      Time pick_rank = 0;
      bool involves_moved = false;
      for (const int bv : tie.contenders) {
        if (shift.moved(bv)) {
          // Unreachable while limit <= the moved process's readiness, but
          // be conservative if it ever is.
          involves_moved = true;
          break;
        }
        const int cv = shift(bv);
        const Time r = rank[static_cast<std::size_t>(cv)];
        // Same pick rule as the ready queue: max rank, then min vertex id
        // (the shift preserves the relative id order of unmoved vertices).
        if (pick < 0 || r > pick_rank || (r == pick_rank && cv < pick)) {
          pick = cv;
          pick_rank = r;
        }
      }
      if (involves_moved || pick != shift(tie.winner)) {
        limit = tie.event;
        break;
      }
    }
    return limit;
  }

  // ---- dynamic state ----------------------------------------------------

  /// Turns the rows at commit on for the next run (`rows` null: off).
  void use_rows(const ListScheduler::Rows* rows) {
    rows_ = rows != nullptr;
    if (!rows_) return;
    k_ = rows->k;
    width_ = static_cast<std::size_t>(k_) + 1;
    out_ = rows->out;
    base_rows_ = rows->base != nullptr ? rows->base->data() : nullptr;
  }

  /// Row e: the base's before the resume point, this run's from there on.
  [[nodiscard]] const Time* row_of(int e) const {
    const std::size_t at = static_cast<std::size_t>(e) * width_;
    return static_cast<std::size_t>(e) < limit_ ? base_rows_ + at
                                                 : out_->data() + at;
  }

  /// Raises process p's data row by the row of event `from`, a delivery.
  void raise_data_row(std::size_t p, int from) {
    Time* dst = data_row.data() + p * width_;
    const Time* src = row_of(from);
    with_fixed_k(k_, [&](auto k) { raise_row(dst, src, k); });
  }

  /// Restores the state this run reaches before event `limit` from
  /// `base`, the schedule of a run that coincides with this one up to there
  /// (`shift` maps its copy vertices to this run's; no copy of the moved
  /// process commits before `limit`).  The commit indices say what had
  /// happened: the copies and transmissions committed so far, the
  /// transmissions their producers had enqueued, and -- counted per
  /// consumer process, since every copy of a process waits for the same
  /// deliveries -- the readiness of the rest; with rows on, also each
  /// consumer's data row, from the base rows of those deliveries.  The
  /// restored node orders and transmissions end with the last event on
  /// each node and on the bus, whose rows the next commits there read.
  /// Restoring the empty prefix (limit 0) is a full build's initial
  /// state.
  void restore(const ListSchedule& base, std::size_t limit,
               const VertexShift& shift) {
    const std::size_t process_count =
        static_cast<std::size_t>(app_.process_count());
    const std::size_t node_count = static_cast<std::size_t>(arch_.node_count());
    result.copies.assign(verts.size(), ScheduledCopy{});
    result.first_copy = first_copy;
    result.node_order.resize(node_count);
    for (std::vector<int>& order_n : result.node_order) order_n.clear();
    result.messages.clear();
    result.bus_order.clear();
    result.makespan = 0;
    node_free.assign(node_count, 0);
    bus_free = 0;
    remaining = verts.size();
    event = limit;
    limit_ = limit;
    heap_pops = 0;
    worst = 0;
    for (auto& q : avail) q.clear();
    for (auto& q : future) q.clear();
    delivered.assign(process_count, 0);
    latest.assign(process_count, 0);
    if (rows_) {
      data_row.assign(process_count * width_, 0);
      // Room for every event: at most one transmission per (message,
      // producer copy), the deliveries `deps` counts.
      const std::size_t events_bound = verts.size() + static_cast<std::size_t>(
          std::accumulate(deps.begin(), deps.end(), 0));
      if (out_->size() < events_bound * width_) {
        out_->resize(events_bound * width_);
      }
    }
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
      }
    }

    // Only a process with a copy left to commit reads its data row.
    if (rows_) {
      row_needed.assign(process_count, 0);
      for (std::size_t p = 0; p < process_count; ++p) {
        for (int v = first_copy[p]; v < first_copy[p + 1]; ++v) {
          if (result.copies[static_cast<std::size_t>(v)].event < 0) {
            row_needed[p] = 1;
            break;
          }
        }
      }
    }
    const auto count_delivery = [&](ProcessId dst, Time at, int from) {
      const std::size_t p = static_cast<std::size_t>(dst.get());
      ++delivered[p];
      latest[p] = std::max(latest[p], at);
      if (rows_ && row_needed[p]) raise_data_row(p, from);
    };
    // Local deliveries of the committed copies.
    for (const std::vector<int>& on_node : result.node_order) {
      for (const int v : on_node) {
        const ScheduledCopy& sc = result.copies[static_cast<std::size_t>(v)];
        for (MessageId mid : app_.outputs(sc.ref.process)) {
          const Message& m = app_.message(mid);
          if (!crosses_bus(assignment_->plan(m.dst), sc.node)) {
            count_delivery(m.dst, sc.finish, sc.event);
          }
        }
      }
    }

    // Transmissions, in commit order: the committed ones, then the pending
    // ones -- those whose producer copy has committed.
    result.messages.reserve(base.messages.size());
    result.bus_order.reserve(base.messages.size());
    txq.clear();
    for (std::size_t i = 0; i < base.messages.size(); ++i) {
      const ScheduledMessage& sm = base.messages[i];
      const Message& m = app_.message(sm.msg);
      if (static_cast<std::size_t>(sm.event) < limit) {
        result.bus_order.push_back(static_cast<int>(i));
        result.messages.push_back(sm);
        bus_free = sm.finish;
        count_delivery(m.dst, sm.finish, sm.event);
        continue;
      }
      const std::size_t producer = static_cast<std::size_t>(
          base.first_copy[static_cast<std::size_t>(m.src.get())] +
          sm.src_copy);
      const int src_event = base.copies[producer].event;
      if (static_cast<std::size_t>(src_event) < limit) {
        txq.push(
            TxEntry{sm.ready, sm.msg.get(), src_event, sm.src_copy, sm.sender});
      }
    }

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

  void run() {
    while (remaining > 0) {
      // Best startable copy: the (start, rank desc, vertex) minimum over
      // the nodes' heads.  A node's head is its best `avail` copy, starting
      // at node_free, when there is one (every `future` copy starts later),
      // else its earliest `future` copy.  O(N) for N nodes -- 2 to 6 on
      // every input in the repository -- so no tournament tree.
      std::size_t best_node = 0;
      const ReadyEntry* pick = nullptr;
      Time pick_start = kTimeInfinity;
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
        if (!pick || start < pick_start ||
            (start == pick_start && RankLess{}(*head, *pick))) {
          best_node = n;
          pick = head;
          pick_start = start;
        }
      }

      // A transmission ready no later than the earliest startable copy is
      // committed first, keeping the bus FIFO in ready order.
      if (!txq.empty() && (!pick || txq.top().ready <= pick_start)) {
        const TxEntry tx = txq.top();
        txq.pop();
        ++heap_pops;
        commit_tx(tx);
      } else if (!pick) {
        throw std::logic_error("list scheduler deadlock (cyclic copy graph?)");
      } else {
        const int v = pick->vertex;
        if (!avail[best_node].empty()) {
          avail[best_node].pop();
        } else {
          future[best_node].pop();
        }
        ++heap_pops;
        if (log) record_start_ties(v, pick_start);
        commit_copy(v, pick_start);
      }
      ++event;
    }

    // Bus finish may exceed the last copy finish; the cycle ends when all
    // activity (including transmissions) completed.
    for (const ScheduledMessage& m : result.messages) {
      result.makespan = std::max(result.makespan, m.finish);
    }
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
    if (rows_) {
      // Predecessors: the process's deliveries, folded into its data row,
      // and the copy committed last on the node.
      const std::size_t p = static_cast<std::size_t>(cv.ref.process.get());
      const WcslWeight w = copy_weight(
          app_.process(cv.ref.process),
          assignment_->plan(cv.ref.process)
              .copies[static_cast<std::size_t>(cv.ref.copy)],
          cv.duration, k_);
      const Time* data = data_row.data() + p * width_;
      const std::vector<int>& on_node = result.node_order[n];
      const Time* prev =
          on_node.empty()
              ? nullptr
              : row_of(result.copies[static_cast<std::size_t>(on_node.back())]
                           .event);
      Time* out = out_->data() + static_cast<std::size_t>(sc.event) * width_;
      worst = std::max(worst, with_fixed_k(k_, [&](auto k) {
                         return commit_row(w, cv.release, data, prev, out, k);
                       }));
    }
    result.node_order[n].push_back(v);
    result.makespan = std::max(result.makespan, sc.finish);

    // Emit deliveries / enqueue transmissions for outgoing messages.
    for (MessageId mid : app_.outputs(cv.ref.process)) {
      const Message& m = app_.message(mid);
      if (crosses_bus(assignment_->plan(m.dst), cv.node)) {
        txq.push(TxEntry{sc.finish, mid.get(), sc.event, cv.ref.copy,
                         cv.node});
      } else {
        deliver(m, sc.finish, sc.event);
      }
    }
  }

  void commit_tx(const TxEntry& tx) {
    const Message& m = app_.message(MessageId{tx.msg});
    const TdmaWindow window = arch_.bus().transmission(
        tx.sender, std::max(tx.ready, bus_free), m.size);
    const int e = static_cast<int>(event);
    if (rows_) {
      // Predecessors: the sending copy and the previous transmission.
      const WcslWeight w{arch_.bus().worst_case_duration(tx.sender, m.size),
                         0, 0};
      const Time* sender = row_of(tx.src_event);
      const Time* prev = result.messages.empty()
                             ? nullptr
                             : row_of(result.messages.back().event);
      Time* out = out_->data() + static_cast<std::size_t>(e) * width_;
      worst = std::max(worst, with_fixed_k(k_, [&](auto k) {
                         return commit_row(w, Time{0}, sender, prev, out, k);
                       }));
    }
    bus_free = window.finish;
    result.bus_order.push_back(static_cast<int>(result.messages.size()));
    result.messages.push_back(ScheduledMessage{MessageId{tx.msg}, tx.src_copy,
                                               tx.sender, e, tx.ready,
                                               window.start, window.finish});
    deliver(m, window.finish, e);
  }

  /// Event `from` delivered message m at `delivery` to all consumer copies:
  /// update their readiness and dependency counters (and, with rows on,
  /// the consumer's data row); a copy whose last dependency resolved joins
  /// the ready queue.
  void deliver(const Message& m, Time delivery, int from) {
    const std::size_t p = static_cast<std::size_t>(m.dst.get());
    if (rows_) raise_data_row(p, from);
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
    tied.clear();
    for (std::size_t n = 0; n < node_free.size(); ++n) {
      if (node_free[n] == start) {
        for (const ReadyEntry& e : avail[n].items()) tied.push_back(e.vertex);
      } else if (node_free[n] < start && !future[n].empty() &&
                 future[n].top().bound == start) {
        assert(avail[n].empty());
        for (const ReadyEntry& e : future[n].items()) {
          if (e.bound == start) tied.push_back(e.vertex);
        }
      }
    }
    if (tied.empty()) return;
    tied.push_back(winner);
    // Canonical order, as the linear-scan reference enumerates them
    // (tie.winner keeps the actual pick).
    std::sort(tied.begin(), tied.end());
    log->ties.push_back(ScheduleCheckpointLog::StartTie{event, winner, tied});
  }

  /// A full build of `assignment` recording `out_log`: its static data goes
  /// into the log, then the run from event 0, whose schedule is swapped in.
  void build_logged(const PolicyAssignment& assignment,
                    ScheduleCheckpointLog& out_log) {
    log = &out_log;
    build_static(assignment);
    out_log.avail_event.assign(verts.size(), 0);
    out_log.ties.clear();
    out_log.own_rank.swap(own);
    out_log.deps = deps;
    out_log.rank_order.swap(order);
    restore(ListSchedule{}, 0, VertexShift{});
    run();
    std::swap(out_log.schedule, result);
    log = nullptr;
  }

  /// The resumed run of list_schedule_resume, into `result`.
  ListScheduleResumeStats resume(const PolicyAssignment& base,
                                 const ScheduleCheckpointLog& base_log,
                                 const PolicyAssignment& candidate,
                                 ProcessId moved) {
    log = nullptr;
    const VertexShift shift = derive_static(base, base_log, candidate, moved);
    const std::size_t limit = resume_limit(base, base_log, moved, shift);
    restore(base_log.schedule, limit, shift);
    run();
    ListScheduleResumeStats stats;
    stats.resumed = limit > 0;
    stats.events_total = event;
    stats.events_resumed = limit;
    stats.events_replayed = event - limit;
    stats.heap_pops = heap_pops;
    return stats;
  }

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment* assignment_ = nullptr;

  // Static problem data.
  std::vector<CopyVertex> verts;
  std::vector<Time> own;  ///< per vertex: own rank term (see the log)
  std::vector<int> first_copy;
  std::vector<int> deps;  ///< per process: producer copies over its inputs
  std::vector<std::int32_t> order;  ///< rank order (full builds only)
  std::vector<Time> rank;
  std::vector<Time> best;  ///< per process: highest copy rank so far
  std::vector<int> unranked_outputs;  ///< per process (full builds only)

  // Dynamic event-loop state.
  ListSchedule result;
  std::vector<int> deps_left;
  std::vector<Time> data_ready;
  std::vector<Time> node_free;
  std::vector<int> delivered;  ///< per process: deliveries restored
  std::vector<Time> latest;    ///< per process: latest restored delivery
  Time bus_free = 0;
  /// Per node: ready copies whose bound node_free has reached.
  std::vector<BinaryMinHeap<ReadyEntry, RankLess>> avail;
  /// Per node: ready copies whose bound lies past node_free.
  std::vector<BinaryMinHeap<ReadyEntry, BoundLess>> future;
  BinaryMinHeap<TxEntry, TxLess> txq;
  std::size_t remaining = 0;
  std::size_t event = 0;
  std::size_t heap_pops = 0;
  std::vector<int> tied;  ///< record_start_ties' contenders

  // Rows at commit (rows_ set): the rows of events from limit_ on go to
  // out_, the earlier ones are base_rows_'s.
  bool rows_ = false;
  int k_ = 0;
  std::size_t width_ = 1;
  std::vector<Time>* out_ = nullptr;
  const Time* base_rows_ = nullptr;
  std::size_t limit_ = 0;
  /// Per process: max over the deliveries so far of their rows.
  std::vector<Time> data_row;
  std::vector<char> row_needed;  ///< per process: restore raises its row
  Time worst = 0;  ///< the largest L(e, k) computed this run

  ScheduleCheckpointLog* log = nullptr;
};

}  // namespace

class ListScheduler::Impl : public Scheduler {
  using Scheduler::Scheduler;
};

ListScheduler::ListScheduler(const Application& app, const Architecture& arch)
    : impl_(std::make_unique<Impl>(app, arch)) {}

ListScheduler::~ListScheduler() = default;

const ListSchedule& ListScheduler::build(const PolicyAssignment& assignment,
                                         ScheduleCheckpointLog& log,
                                         const Rows& rows) {
  impl_->use_rows(&rows);
  impl_->build_logged(assignment, log);
  return log.schedule;
}

ListScheduleResumeStats ListScheduler::resume(const PolicyAssignment& base,
                                              const ScheduleCheckpointLog& log,
                                              const PolicyAssignment& candidate,
                                              ProcessId moved,
                                              const Rows* rows) {
  impl_->use_rows(rows);
  return impl_->resume(base, log, candidate, moved);
}

const ListSchedule& ListScheduler::schedule() const { return impl_->result; }

Time ListScheduler::worst_row() const { return impl_->worst; }

ListSchedule list_schedule(const Application& app, const Architecture& arch,
                           const PolicyAssignment& assignment) {
  Scheduler s(app, arch);
  s.build_static(assignment);
  s.restore(ListSchedule{}, 0, VertexShift{});
  s.run();
  return std::move(s.result);
}

const ListSchedule& list_schedule(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& assignment,
                                  ScheduleCheckpointLog& log) {
  Scheduler s(app, arch);
  s.build_logged(assignment, log);
  return log.schedule;
}

std::vector<Time> partial_critical_path_ranks(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment) {
  Scheduler s(app, arch);
  s.build_static(assignment);
  return std::move(s.rank);
}

ListSchedule list_schedule_resume(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& base,
                                  const ScheduleCheckpointLog& log,
                                  const PolicyAssignment& candidate,
                                  ProcessId moved,
                                  ListScheduleResumeStats* stats) {
  Scheduler s(app, arch);
  const ListScheduleResumeStats run_stats =
      s.resume(base, log, candidate, moved);
  if (stats) *stats = run_stats;
  return std::move(s.result);
}

ScheduleStaticData derive_static_data(const Application& app,
                                      const Architecture& arch,
                                      const PolicyAssignment& base,
                                      const ScheduleCheckpointLog& log,
                                      const PolicyAssignment& candidate,
                                      ProcessId moved) {
  Scheduler s(app, arch);
  (void)s.derive_static(base, log, candidate, moved);
  ScheduleStaticData data;
  data.duration.reserve(s.verts.size());
  for (const CopyVertex& cv : s.verts) data.duration.push_back(cv.duration);
  data.rank = std::move(s.rank);
  data.deps = std::move(s.deps);
  return data;
}

}  // namespace ftes
