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
// plan.  A full build can record a ScheduleCheckpointLog -- the schedule
// itself, per-vertex readiness events and start-time ties, and the build's
// static data -- and a resume derives the candidate's static data from the
// log (recomputing only the moved process's copies), restores its scheduler
// state before the first event the move can affect straight from the base
// schedule's commit indices, then runs the ordinary event loop from there.
// The resumed schedule is bit-identical to a from-scratch build by
// construction: the prefix before the resume point is proven unaffected
// (readiness of the moved process's copies, priority-rank diffs, and
// local<->bus flips of its inbound messages all bound the resume point),
// and the suffix is replayed with the candidate's own data.  See
// docs/ARCHITECTURE.md.
//
// Rows at commit.  A ListScheduler keeps every buffer from run to run (a
// warm run allocates nothing) and can compute each event's WCSL DP row
// (sched/wcsl.h) the moment it commits the event, from rows it already
// holds: per consumer process a data row, raised by every delivery, and
// the row of the last event on the node or the bus.  A resumed run reads
// the rows of the events before its resume point from its base's rows, so
// scoring a move costs one pass over its replayed events and no WCSL DAG
// (opt/eval_context.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/policy.h"
#include "fault/scenario.h"
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
/// committed in that order.  The WCSL analysis (sched/wcsl.h) visits its
/// DAG in this order, and list_schedule_resume reads the scheduler state
/// before any event off these indices.
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

/// Checkpoint log of one full build: the base schedule, whose commit
/// indices define the scheduler state before any event, plus the
/// per-vertex readiness events and start-time ties needed to bound a move's
/// first affected placement, plus the static data a resume derives its
/// candidate's from.  An "event" is one committed copy or one committed bus
/// transmission; a build has copies + transmissions events.
struct ScheduleCheckpointLog {
  ListSchedule schedule;
  /// Per copy vertex: first event index whose selection could consider the
  /// vertex (its dependencies completed strictly before that event).
  std::vector<std::size_t> avail_event;

  /// One start-time tie of the ready queue: the selection fell back to the
  /// priority ranks.  Ranks decide *only* such ties, so a move that changes
  /// ranks (every ancestor of the moved process, typically) invalidates the
  /// schedule prefix no earlier than the first recorded tie whose winner
  /// changes when re-judged with the candidate's ranks.
  struct StartTie {
    std::size_t event = 0;
    int winner = -1;  ///< the base build's pick
    /// Every vertex at the tied start (incl. winner), ascending by vertex
    /// id, so the log compares directly with the linear-scan reference.
    std::vector<int> contenders;
  };
  std::vector<StartTie> ties;  ///< ascending by event

  // Static data of the build.  A copy's fault-free duration is its
  // schedule entry's finish - start.
  /// Per copy vertex: its own rank term, the fault-free duration plus the
  /// worst-case bus time of its process's heaviest output from its node
  /// (rank = own term + the highest rank among the consumers' copies).
  std::vector<Time> own_rank;
  /// Per process: the deliveries each of its copies waits for, one per
  /// (input message, producer copy).
  std::vector<int> deps;
  /// Every process, each after all its consumers: the order of the rank
  /// pass.
  std::vector<std::int32_t> rank_order;
};

/// Counters of one resumed (or attempted-resume) build.
struct ListScheduleResumeStats {
  bool resumed = false;             ///< the run started past event 0
  std::size_t events_total = 0;     ///< events of the candidate build
  std::size_t events_resumed = 0;   ///< prefix events restored from the base
  std::size_t events_replayed = 0;  ///< events actually executed
  /// Queue pops during replay: every pick from a ready or tx queue plus
  /// every future->avail promotion of a ready copy.
  std::size_t heap_pops = 0;
};

/// Computes the fault-free list schedule.  `assignment` must be fully
/// mapped; it is validated against `model` (pass k = 0 via a permissive
/// model when scheduling non-FT baselines).
[[nodiscard]] ListSchedule list_schedule(const Application& app,
                                         const Architecture& arch,
                                         const PolicyAssignment& assignment);

/// Same full build, recording `log` for later resumes; the schedule is
/// stored in (and returned from) `log.schedule`.
const ListSchedule& list_schedule(const Application& app,
                                  const Architecture& arch,
                                  const PolicyAssignment& assignment,
                                  ScheduleCheckpointLog& log);

/// Schedule of `candidate` (== `base` with process `moved`'s plan
/// replaced), resumed from `log` (recorded from `base`): the candidate's
/// static data is derived from the log's, the scheduler state before the
/// first event the move can affect is restored from the base schedule, and
/// the event loop runs from there.  Bit-identical to
/// list_schedule(app, arch, candidate); a full build when the move affects
/// event 0.  Only the moved process's plan is read for its copies: the
/// other processes' plans must equal `base`'s.
///
/// Throws std::invalid_argument when `candidate` or `base` does not have
/// `app`'s process count, `moved` lies outside [0, process count), `log`
/// was not recorded from `base`'s copy layout on `arch`'s nodes (an empty
/// log included) or its static data is missing or sized for another
/// layout, or the moved process's plan has no copies, an unmapped copy or
/// a copy on a node its process cannot run on.
[[nodiscard]] ListSchedule list_schedule_resume(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& base, const ScheduleCheckpointLog& log,
    const PolicyAssignment& candidate, ProcessId moved,
    ListScheduleResumeStats* stats = nullptr);

/// A list scheduler whose buffers persist from run to run, so that a warm
/// run allocates nothing, and which can compute each committed event's
/// WCSL DP row (see "Rows at commit" above).  Its runs schedule exactly as
/// list_schedule and list_schedule_resume do; `app` and `arch` must
/// outlive it.  Not thread-safe: one per thread.
class ListScheduler {
 public:
  ListScheduler(const Application& app, const Architecture& arch);
  ~ListScheduler();
  ListScheduler(const ListScheduler&) = delete;
  ListScheduler& operator=(const ListScheduler&) = delete;

  /// Where a run computes WCSL DP rows under `k` faults: row e is
  /// (*out)[e * (k + 1) ..], L(e, b) for b = 0..k as wcsl_dp_row computes
  /// it over build_wcsl_dag of the run's schedule.  `out` grows to hold at
  /// least every event's row and never shrinks.  A resumed run computes
  /// the rows of the events it replays only; those before its resume point
  /// are read from `base`, the rows that the build which recorded its log
  /// computed (laid out alike), and are left unwritten in `out`.
  struct Rows {
    int k = 0;
    std::vector<Time>* out = nullptr;
    const std::vector<Time>* base = nullptr;
  };

  /// list_schedule(app, arch, assignment, log), plus the row of every event
  /// into `rows.out` (`rows.base` is unread).  Same throws.
  const ListSchedule& build(const PolicyAssignment& assignment,
                            ScheduleCheckpointLog& log, const Rows& rows);

  /// list_schedule_resume(app, arch, base, log, candidate, moved) into
  /// schedule(), plus, with `rows`, the rows of the replayed events.
  /// Returns the run's counters.  Same throws.
  ListScheduleResumeStats resume(const PolicyAssignment& base,
                                 const ScheduleCheckpointLog& log,
                                 const PolicyAssignment& candidate,
                                 ProcessId moved, const Rows* rows = nullptr);

  /// The last resume's schedule (a build's is its log's).
  [[nodiscard]] const ListSchedule& schedule() const;

  /// The largest L(e, k) among the rows the last run computed; 0 if none.
  [[nodiscard]] Time worst_row() const;

  class Impl;  ///< the run state (list_scheduler.cpp)

 private:
  std::unique_ptr<Impl> impl_;
};

/// Static data of a build: per copy vertex (indexed like
/// ListSchedule::copies) its fault-free duration and partial critical path
/// rank, per process the deliveries each of its copies waits for.
struct ScheduleStaticData {
  std::vector<Time> duration;
  std::vector<Time> rank;
  std::vector<int> deps;
};

/// The static data list_schedule_resume(app, arch, base, log, candidate,
/// moved) derives from `log` in place of computing it from `candidate`,
/// for tests: it equals a full build's.  Same throws.
[[nodiscard]] ScheduleStaticData derive_static_data(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& base, const ScheduleCheckpointLog& log,
    const PolicyAssignment& candidate, ProcessId moved);

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

/// Convenience: the non-fault-tolerant baseline assignment -- one copy per
/// process, no checkpoints/recoveries, mapped as `reference` maps copy 0.
/// Its list schedule's makespan is the denominator of the paper's fault
/// tolerance overhead (FTO) metric.
[[nodiscard]] PolicyAssignment strip_fault_tolerance(
    const Application& app, const PolicyAssignment& reference);

}  // namespace ftes
