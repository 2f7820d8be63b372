// Adversarial scenario fuzzer: randomized timing/fault stress for
// synthesized schedule tables (the ROADMAP item "Adversarial scenario
// fuzzing", in the spirit of NodeFz's perturbed event schedules).
//
// `check_all_scenarios` (sim/executor.h) validates the enumerated scenario
// set at nominal worst-case timing: every fault lands at the very end of its
// segment, every execution takes exactly its WCET, and the TDMA bus round
// starts at phase 0.  The paper's guarantee is stronger -- the tables must
// hold for *every* admissible run, including early completions and early
// fault arrivals.  The fuzzer hunts that gap: it draws random admissible
// perturbations
//
//   * a fault scenario (<= k faults, via sim/fault_injector.h),
//   * per-copy execution-time jitter (actual <= WCET),
//   * per-copy fault-arrival jitter (faults strike before the segment end),
//   * a TDMA bus-slot phase offset (random trials keep phase 0; fixtures
//     and hand-built perturbations may shift it, which is adversarial: the
//     synthesized tables assume phase 0, so a shift measures robustness
//     slack),
//
// and replays each one through a table-driven executor: activations fire at
// the times the (possibly corrupted) tables dictate, completions and
// condition reveals move with the perturbation, and the replayed trace is
// checked through `execute_scenario` plus fuzzer-level causality checks
// (data readiness, node/bus overlap, frozen-start pins, slot alignment).
//
// A failing trial is greedily shrunk -- drop faults, push jitter back to
// nominal, bisect the phase offset -- and can be serialized as a replayable
// fixture (tests/fixtures/*.fuzz) that `ftes_cli --replay` turns into a
// permanent regression test.
//
// Determinism: trial i perturbs with seed derive_stream_seed(seed, i) and
// results fold in trial order, so a fuzz run is bit-identical for every
// thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"
#include "fault/scenario.h"
#include "sched/cond_scheduler.h"
#include "util/cancellation.h"
#include "util/random.h"

namespace ftes {

class ThreadPool;

/// Violation classes the replay distinguishes (FuzzReport buckets,
/// fixture `expect` lines).
enum class FuzzKind {
  kDeadlineMiss,      ///< global/local deadline missed, or never completes
  kTableGap,          ///< an activation has no table entry for its scenario
  kGuardNotEntailed,  ///< execute_scenario: activation without entailed entry
  kNotReady,          ///< activation fires before its inputs/detection
  kOverlap,           ///< two activations overlap on a node or the bus
  kFrozenDivergence,  ///< frozen item off its pinned start
  kSlotMisaligned,    ///< bus entry not on a slot boundary of its sender
};

[[nodiscard]] const char* to_string(FuzzKind kind);
/// Inverse of to_string; empty optional for unknown names.
[[nodiscard]] std::optional<FuzzKind> fuzz_kind_from_string(
    const std::string& name);

struct FuzzViolation {
  FuzzKind kind = FuzzKind::kDeadlineMiss;
  std::string message;

  friend bool operator==(const FuzzViolation& a, const FuzzViolation& b) {
    return a.kind == b.kind && a.message == b.message;
  }
};

/// Jitter scales are integer ratios out of kFuzzScaleOne (no floating point
/// on the replay path, so results are bit-identical everywhere).
inline constexpr int kFuzzScaleOne = 256;
/// Lower bound of the scales random trials draw: a perturbed execution or
/// fault arrival never shrinks below kFuzzMinScale/kFuzzScaleOne of its
/// worst case.
inline constexpr int kFuzzMinScale = 64;
/// Failing trials a fuzz report keeps as counterexamples (in trial order).
inline constexpr int kFuzzMaxCounterexamples = 3;

/// One concrete perturbed run.  Scale vectors are indexed by global copy
/// index (process-major, copy-minor -- the conditional scheduler's order);
/// an empty vector means "all nominal".
struct FuzzPerturbation {
  FaultScenario scenario;
  std::vector<int> exec_scale;     ///< completion time ratio, 1..kFuzzScaleOne
  std::vector<int> arrival_scale;  ///< fault arrival ratio, 1..kFuzzScaleOne
  Time bus_phase = 0;              ///< TDMA round phase offset, 0 = as built
};

/// A deliberate table edit applied before a replay (regression fixtures
/// pin "the fuzzer catches this corruption").
struct TableCorruption {
  int node = -1;  ///< node index, or -1 for the bus rows
  std::string row;
  std::string label;
  Time old_start = 0;  ///< entry selector (with row + label)
  Time new_start = 0;  ///< flipped start; ignored when erase
  bool erase = false;  ///< remove the entry instead of moving it
};

/// A replayable fixture: perturbation + optional corruptions + the
/// violation kinds the replay is expected to produce (empty = must be
/// clean).  Text format documented in docs/ARCHITECTURE.md.
struct FuzzFixture {
  FuzzPerturbation perturbation;
  std::vector<TableCorruption> corruptions;
  std::vector<FuzzKind> expect;
  std::string note;
};

struct FuzzCounterexample {
  long long trial = -1;          ///< failing trial index
  std::uint64_t trial_seed = 0;  ///< derive_stream_seed(options.seed, trial)
  FuzzPerturbation perturbation; ///< shrunk when FuzzOptions::shrink
  int shrink_steps = 0;          ///< accepted simplifications
  std::vector<FuzzViolation> violations;  ///< of the (shrunk) perturbation
};

struct FuzzOptions {
  int trials = 200;
  std::uint64_t seed = 1;
  /// Concurrent trials (1 = serial; 0 = all hardware threads).  Reports are
  /// identical for every value.
  int threads = 1;
  ThreadPool* pool = nullptr;  ///< nullptr = ThreadPool::shared()
  bool shrink = true;          ///< shrink kept counterexamples
  /// Polled once per trial; a fired token stops the sweep early (the
  /// report covers the trials that ran).
  CancellationToken* cancel = nullptr;
};

struct FuzzReport {
  long long trials = 0;          ///< trials actually executed
  long long failing_trials = 0;
  long long violations = 0;      ///< total violations over all trials
  /// Violation counts keyed by to_string(FuzzKind).
  // lint: cold-path -- report counters; ordered keys give the fuzz report
  // its deterministic print order
  std::map<std::string, long long> violations_by_kind;
  Time worst_completion = 0;     ///< max replayed makespan over all trials
  long long first_failing_trial = -1;
  /// The first kFuzzMaxCounterexamples failing trials.
  std::vector<FuzzCounterexample> counterexamples;
  // lint: float-ok -- wall-clock metadata for human reports; never printed
  // in thread-count-diffed output and never folded into a result
  double seconds = 0.0;

  [[nodiscard]] bool ok() const { return failing_trials == 0; }
};

/// Table-driven stress executor over one synthesized schedule.  The
/// schedule must have been built with traces and condition broadcasts (the
/// defaults of CondScheduleOptions); all references must outlive the
/// fuzzer.  The constructor resolves every table row, label, condition id
/// and frozen pin a replay reads, so the schedule and its tables must not
/// change while the fuzzer lives (corrupt them before constructing it).
class ScheduleFuzzer {
 public:
  /// Throws std::invalid_argument when the schedule carries no traces.
  ScheduleFuzzer(const Application& app, const Architecture& arch,
                 const PolicyAssignment& assignment, const FaultModel& model,
                 const CondScheduleResult& schedule);

  /// Replays one perturbation through the tables; violations sorted by
  /// (kind, message).  Throws std::invalid_argument when the perturbation's
  /// scenario is not covered by the schedule.
  [[nodiscard]] std::vector<FuzzViolation> replay(
      const FuzzPerturbation& perturbation) const;

  /// The perturbation trial `trial_seed` draws: a fault scenario and
  /// jitter scales in [kFuzzMinScale, kFuzzScaleOne], at phase 0.
  [[nodiscard]] FuzzPerturbation random_perturbation(
      std::uint64_t trial_seed) const;

  /// The randomized sweep: options.trials independent perturbations,
  /// options.threads at a time, folded in trial order (bit-identical for
  /// every thread count).  Counterexamples are shrunk when options.shrink.
  [[nodiscard]] FuzzReport fuzz(const FuzzOptions& options) const;

  /// Greedy counterexample minimization: drop faults one at a time, push
  /// jitter scales back toward nominal (bisecting), zero/bisect the phase
  /// offset -- keeping every simplification that still fails.  Returns the
  /// input unchanged when it does not fail.  `steps` (optional) receives
  /// the number of accepted simplifications.
  [[nodiscard]] FuzzPerturbation shrink(const FuzzPerturbation& failing,
                                        int* steps = nullptr) const;

  /// Total process copies (the length of the perturbation scale vectors).
  [[nodiscard]] int copy_count() const {
    return static_cast<int>(copies_.size());
  }

 private:
  struct Replayed;

  /// Flat index of a copy (copy_offsets order).
  [[nodiscard]] std::size_t copy_at(ProcessId pid, int copy) const {
    return static_cast<std::size_t>(
        first_copy_[static_cast<std::size_t>(pid.get())] + copy);
  }
  [[nodiscard]] std::size_t copy_at(CopyRef ref) const {
    return copy_at(ref.process, ref.copy);
  }
  [[nodiscard]] const ScenarioTrace& trace_for(
      const FaultScenario& scenario) const;
  [[nodiscard]] Replayed replay_trace(
      const FuzzPerturbation& perturbation) const;

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment& pa_;
  FaultModel model_;
  const CondScheduleResult& schedule_;

  using Row = std::vector<TableEntry>;

  /// A copy's table facts: its node row (nullptr when the tables have
  /// none), its frozen start pin, and per attempt a (0..budget) the label
  /// of attempt a and the condition id of fault a + 1 (-1 = never
  /// registered).
  struct CopyRow {
    const Row* entries = nullptr;
    std::optional<Time> pin;
    std::vector<std::string> labels;
    std::vector<int> conds;
  };
  /// A bus transmission's table facts: its bus row, the label of its
  /// entries ("" for a condition broadcast), its name in violations and
  /// its message's frozen start pin.
  struct TxRow {
    const Row* entries = nullptr;
    std::string label;
    std::string name;
    std::optional<Time> pin;
  };

  std::vector<TableCopy> copies_;  ///< the table producer's copy table
  std::vector<CopyRow> copy_rows_;  ///< in copies_ order
  /// Per message its frozen sync, then one per source copy; then one per
  /// condition id, from cond_tx_ on.
  std::vector<TxRow> tx_rows_;
  std::vector<std::size_t> sync_tx_;  ///< by MessageId: its sync's tx row
  std::size_t cond_tx_ = 0;
  std::vector<int> first_copy_;
  /// scenario key (flattened hits) -> index into schedule_.traces.
  // lint: cold-path -- built once per fuzz session over the final traces
  std::map<std::vector<int>, std::size_t> trace_index_;
};

// --- fixtures ---------------------------------------------------------------

/// Renders a fixture in the line-based text format (docs/ARCHITECTURE.md).
[[nodiscard]] std::string fixture_to_text(const FuzzFixture& fixture,
                                          const Application& app,
                                          const PolicyAssignment& assignment);

/// Parses a fixture; throws std::runtime_error with a line diagnostic on
/// malformed input or unknown process names.
[[nodiscard]] FuzzFixture parse_fixture(std::istream& in,
                                        const Application& app,
                                        const PolicyAssignment& assignment);

/// Applies the corruptions in order; throws std::runtime_error when a
/// selected entry does not exist (stale fixture).
void apply_corruptions(const std::vector<TableCorruption>& corruptions,
                       ScheduleTables& tables);

}  // namespace ftes
