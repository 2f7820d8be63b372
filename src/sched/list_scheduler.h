// Fault-free static cyclic list scheduler (substrate of [7, 8], used by the
// design-space exploration of Section 6).
//
// Schedules every copy of every process of a mapped policy assignment on its
// node, plus every cross-node message on the TDMA bus, using partial
// critical path priorities.  Durations are the *fault-free* fault-tolerant
// execution times (E(n,0) = C + n*chi for checkpointed copies, C for
// replicas); the worst-case analysis under k faults is layered on top by
// wcsl.h.  The same scheduler with a trivial one-copy no-overhead
// assignment produces the non-fault-tolerant baseline schedule used in the
// paper's FTO metric.
//
// Incremental scheduling.  The optimizers evaluate thousands of candidate
// assignments per run, each differing from an incumbent in a single process
// plan.  A full build can therefore record a ScheduleCheckpointLog --
// per-vertex readiness/placement event indices plus full scheduler-state
// snapshots at a fixed event interval (O(sqrt(E)) by default) -- and
// list_schedule_resume() replays a candidate from the last snapshot that
// provably precedes any placement the move can affect.  The resumed
// schedule is bit-identical to a from-scratch build by construction: the
// prefix before the resume point is proven unaffected (readiness of the
// moved process's copies, priority-rank diffs, and local<->bus flips of its
// inbound messages all bound the resume point), and the suffix is replayed
// with the candidate's own data.  See docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/policy.h"
#include "fault/scenario.h"
#include "util/snapshot_store.h"
#include "util/time_types.h"

namespace ftes {

/// One scheduled execution block (a copy runs as one block; its inline
/// recoveries extend it only in faulty scenarios).
struct ScheduledCopy {
  CopyRef ref;
  NodeId node;
  int event = -1;  ///< commit index of the placement (see ListSchedule)
  Time start = 0;
  Time finish = 0;  ///< fault-free finish
};

/// One scheduled TDMA transmission: message `msg` sent by copy `src_copy`
/// of the producer.
struct ScheduledMessage {
  MessageId msg;
  int src_copy = 0;
  NodeId sender;
  int event = -1;   ///< commit index of the transmission (see ListSchedule)
  Time ready = 0;   ///< producer's fault-free finish
  Time start = 0;   ///< begin of first TDMA slot used
  Time finish = 0;  ///< end of last slot used
};

/// Every placement and transmission carries its commit index `event`: the
/// scheduler commits one of them per event, so the indices of a schedule's
/// copies and messages are a permutation of [0, copies + messages), and a
/// producer, its transmissions and the copies that wait for them are
/// committed in that order -- the WCSL analysis (sched/wcsl.h) visits its
/// DAG in this order.  A move leaves the indices of the unaffected prefix
/// unchanged, so prefix snapshots stay bitwise shareable.
struct ListSchedule {
  /// Indexed by copy vertex id: vertex of copy j of process p is
  /// `first_copy[p] + j` (copies of one process are contiguous).
  std::vector<ScheduledCopy> copies;
  std::vector<ScheduledMessage> messages;  ///< in bus commit order
  /// Static order per node: indices into `copies`, ascending start.
  std::vector<std::vector<int>> node_order;
  /// Static bus order: indices into `messages`, ascending start.
  std::vector<int> bus_order;
  Time makespan = 0;
  /// Per-process prefix offsets into `copies` (size process_count + 1).
  std::vector<int> first_copy;

  /// Index into `copies` for a given copy; -1 if absent.  O(1) via the
  /// prefix offsets (the scheduler places copies in vertex-id order).
  [[nodiscard]] int copy_index(CopyRef ref) const;
  /// Fault-free finish time of the latest copy of a process.
  [[nodiscard]] Time process_finish(ProcessId p) const;
};

/// Ready-queue entry: an unplaced copy vertex whose dependencies are all
/// delivered.  Its `bound` max(data_ready, release) is fixed once the last
/// dependency arrives, so every key is exact.  The scheduler keeps two
/// queues per node: `avail` holds the copies whose bound the node's free
/// time has reached (they all start when the node is free; ordered by
/// priority rank descending, then vertex id), `future` the rest (each
/// starts at its bound; ordered by bound first).  Each event picks the
/// (start, rank descending, vertex id) minimum over the nodes' heads --
/// exactly the tie-breaking of the historical linear ready-scan -- in
/// O(N + log V) for N nodes (2 to 6 on every input in the repository).
struct ReadyEntry {
  Time bound = 0;
  Time rank = 0;
  int vertex = -1;
};

/// Pending-transmission entry, ordered by (ready, message id, enqueue
/// sequence) -- the historical FIFO-in-ready-order bus policy.
struct TxEntry {
  Time ready = 0;
  std::int32_t msg = -1;
  int seq = 0;
  int src_copy = 0;
  NodeId sender;
};

/// Snapshot-resident ready-queue entry.  Deliberately *rank-free*: ranks
/// are a pure function of the assignment (re-stamped from the restoring
/// run's own rank vector), while everything else in a snapshot taken
/// before a move's first affected event is move-invariant.  Dropping the
/// rank makes such prefix snapshots bit-identical between a base and any
/// candidate with the same copy layout -- which is what lets a
/// record-while-resuming run share them by reference instead of copying
/// (see ScheduleCheckpointLog::snapshots).
struct SnapshotReadyEntry {
  Time start = 0;
  int vertex = -1;
};

/// Full scheduler state between two placement events, restorable into a
/// resumed run (possibly with the moved process's vertex ids remapped).
///
/// Snapshots are *canonical*: the ready image lists every ready copy with
/// its start at snapshot time, sorted by (start, vertex), and the tx image
/// is sorted in tx queue order, so a snapshot is a pure function of the
/// scheduler's semantic state -- two runs that placed the same prefix
/// record bit-identical snapshots, regardless of their internal queue
/// layout.  (This is what lets a resumed run record a log bit-identical to
/// a from-scratch build's; see list_schedule_resume's `record`
/// parameter.)  Once inside a log a snapshot is immutable and may be
/// co-owned by any number of derived logs.
struct ScheduleSnapshot {
  std::size_t event_index = 0;  ///< events committed before this state
  std::size_t remaining = 0;    ///< copies still unplaced
  Time bus_free = 0;
  int tx_seq = 0;
  std::vector<Time> node_free;
  std::vector<char> placed;
  std::vector<int> deps_left;
  std::vector<Time> data_ready;
  /// Ready image sorted by (start, vertex); rank-free, see above.
  std::vector<SnapshotReadyEntry> ready_heap;
  std::vector<TxEntry> tx_heap;
  ListSchedule partial;  ///< copies/messages committed so far
};

/// Deterministic byte size of one snapshot's storage (the struct plus
/// every owned vector payload) -- the unit of the snapshot_bytes_copied
/// counters, so "bytes a rebase materialized" is a pure function of the
/// schedule and never of allocator or capacity accidents.
[[nodiscard]] std::size_t snapshot_bytes(const ScheduleSnapshot& s);

/// Checkpoint log of one full build: snapshots plus the per-vertex event
/// indices and priority ranks needed to bound a move's first affected
/// placement.  An "event" is one committed copy or one committed bus
/// transmission; a build has copies + transmissions events in total.
struct ScheduleCheckpointLog {
  int snapshot_interval = 0;    ///< events between snapshots (>= 1)
  std::size_t event_count = 0;  ///< total events of the base build
  /// Immutable snapshots at events 0, I, 2I, ... -- copy-on-write: a log
  /// recorded while resuming *shares* the base log's prefix snapshots by
  /// reference (they are bit-identical by construction when the copy
  /// layout is unchanged) and only materializes snapshots at/after the
  /// resume point.  Copying a log copies refs, never snapshot bytes.
  SnapshotStore<ScheduleSnapshot> snapshots;
  /// Per copy vertex: first event index whose selection could consider the
  /// vertex (its dependencies completed strictly before that event).
  std::vector<std::size_t> avail_event;
  /// Per copy vertex: index of the event that placed it.
  std::vector<std::size_t> placed_event;

  /// One start-time tie of the ready queue: the selection fell back to the
  /// priority ranks.  Ranks decide *only* such ties, so a move that changes
  /// ranks (every ancestor of the moved process, typically) invalidates the
  /// schedule prefix no earlier than the first recorded tie whose winner
  /// changes when re-judged with the candidate's ranks.
  struct StartTie {
    std::size_t event = 0;
    int winner = -1;  ///< the base build's pick
    /// Every vertex at the tied start (incl. winner), ascending by vertex
    /// id -- a pure function of the tied state, NOT heap pop order (pop
    /// order depends on ranks, which a resumed run re-records under the
    /// candidate's ranks).
    std::vector<int> contenders;
  };
  std::vector<StartTie> ties;  ///< ascending by event

  /// Per copy vertex: partial critical path priority of the base build.
  std::vector<Time> rank;
};

/// Counters of one resumed (or attempted-resume) build.
struct ListScheduleResumeStats {
  bool resumed = false;             ///< a snapshot past event 0 was used
  std::size_t events_total = 0;     ///< events of the candidate build
  std::size_t events_resumed = 0;   ///< prefix events served by the snapshot
  std::size_t events_replayed = 0;  ///< events actually executed
  /// Queue pops during replay: every pick from a ready or tx queue plus
  /// every future->avail promotion of a ready copy.
  std::size_t heap_pops = 0;
  // Record-while-resuming snapshot accounting (zero without `record`):
  // prefix snapshots transplanted by reference vs materialized by value,
  // and the bytes every materialized snapshot cost (remapped prefix
  // copies plus snapshots recorded live during the replayed suffix).
  std::size_t snapshots_shared = 0;
  std::size_t snapshots_copied = 0;
  std::size_t snapshot_bytes_copied = 0;
  /// Bytes of the shared prefix snapshots -- what a deep-copying record
  /// would have paid on top of snapshot_bytes_copied.
  std::size_t snapshot_bytes_shared = 0;
};

/// Computes the fault-free list schedule.  `assignment` must be fully
/// mapped; it is validated against `model` (pass k = 0 via a permissive
/// model when scheduling non-FT baselines).
[[nodiscard]] ListSchedule list_schedule(const Application& app,
                                         const Architecture& arch,
                                         const PolicyAssignment& assignment);

/// Same full build, additionally recording `log` for later resumes.
/// `snapshot_interval` <= 0 picks round(sqrt(total events)).
[[nodiscard]] ListSchedule list_schedule(const Application& app,
                                         const Architecture& arch,
                                         const PolicyAssignment& assignment,
                                         ScheduleCheckpointLog& log,
                                         int snapshot_interval = 0);

/// The snapshot interval a default full build of `assignment` would pick:
/// round(sqrt(total events)), where an event is one copy placement or one
/// bus transmission.  Lets a caller predict -- without building anything --
/// whether a record-while-resuming run (which inherits the base log's
/// interval) would produce the same log a default from-scratch rebuild
/// would.
[[nodiscard]] int default_snapshot_interval(const Application& app,
                                            const PolicyAssignment& assignment);

/// Schedule of `candidate` (== `base` with process `moved`'s plan replaced),
/// resumed from the nearest safe snapshot of `log` (recorded from `base`).
/// Bit-identical to list_schedule(app, arch, candidate); falls back to a
/// from-scratch build when no snapshot precedes the first affected event.
///
/// Record-while-resuming: when `record` is non-null, the run additionally
/// emits a complete checkpoint log for the *candidate* -- the replayed
/// suffix records its events, ties and snapshots live, and the skipped
/// prefix is transplanted from `log` (event indices and tie groups are
/// move-invariant before the resume point).  Prefix snapshots are
/// copy-on-write: when every moved process keeps its copy count they are
/// *shared by reference* (bit-identical by construction -- snapshots are
/// canonical and rank-free), otherwise they are materialized remapped
/// into the candidate's vertex space; either way the recorded log
/// inherits `log`'s snapshot interval (so prefix snapshots stay aligned)
/// and is bit-identical to the log of
/// `list_schedule(app, arch, candidate, *record, log.snapshot_interval)`
/// -- an accepted move's rebase gets a resumable log while copying only
/// the changed suffix.  `record` must not alias `log` (the transplant
/// reads `log`'s snapshots while writing `record`); record into a fresh
/// log and move it over the old one afterwards.
///
/// Throws std::invalid_argument when `base` or `candidate` does not have
/// `app`'s process count, a moved id lies outside [0, process count), or
/// `log`'s per-vertex event indices do not match `base`'s copy total.
[[nodiscard]] ListSchedule list_schedule_resume(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& base, const ScheduleCheckpointLog& log,
    const PolicyAssignment& candidate, ProcessId moved,
    ListScheduleResumeStats* stats = nullptr,
    ScheduleCheckpointLog* record = nullptr);

/// Multi-move resume: `candidate` is `base` with the plans of every
/// process in `moved` replaced (a batch of accepted moves diffed against
/// a retained grand-base log).  The resume point is bounded by the
/// earliest first-affected event over the whole set; everything else --
/// bit-identity, record-while-resuming, snapshot sharing -- behaves as in
/// the single-move overload (which forwards here).  `moved` may name
/// processes whose plan is in fact unchanged (treated conservatively) and
/// may be empty (candidate == base: resumes from the last snapshot).
[[nodiscard]] ListSchedule list_schedule_resume(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& base, const ScheduleCheckpointLog& log,
    const PolicyAssignment& candidate, const std::vector<ProcessId>& moved,
    ListScheduleResumeStats* stats = nullptr,
    ScheduleCheckpointLog* record = nullptr);

/// Partial critical path priority of every copy vertex, indexed like
/// ListSchedule::copies: the copy's fault-free duration, plus the worst-case
/// bus duration of its process's heaviest outgoing message from the copy's
/// node, plus the highest rank among the copies of its consumer processes.
/// Computed on the process-level DAG in O(P + M + copies) -- exact, because
/// the copy-level precedence graph is complete bipartite per message.  The
/// list scheduler ranks its ready queue with these, and so does the
/// conditional scheduler (sched/cond_scheduler.h).
[[nodiscard]] std::vector<Time> partial_critical_path_ranks(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& assignment);

/// Fault-free duration of one copy under its plan (E(n,0) or C).
[[nodiscard]] Time fault_free_duration(const Application& app,
                                       const CopyPlan& copy, ProcessId pid);

/// Convenience: the non-fault-tolerant baseline assignment -- one copy per
/// process, no checkpoints/recoveries, mapped as `reference` maps copy 0.
/// Its list schedule's makespan is the denominator of the paper's fault
/// tolerance overhead (FTO) metric.
[[nodiscard]] PolicyAssignment strip_fault_tolerance(
    const Application& app, const PolicyAssignment& reference);

}  // namespace ftes
