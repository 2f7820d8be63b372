// Deterministic fault-injection seam (the server-robustness analogue of
// sim/fuzzer.h: instead of perturbing the synthesized schedules, it
// perturbs the toolchain itself).
//
// A small set of named sites is compiled into the hot paths of the
// parser, the pipeline's stage loop, the result cache and the thread
// pool via FTES_FAULT_POINT("site").  At runtime the seam is a single
// relaxed atomic load and costs nothing until a test or `ftes_cli
// --inject` arms it with rules of the form
//
//     site:kind[:every=N][:offset=N][:limit=N]
//
// where kind is `throw` (InjectedFault, a non-deterministic internal
// error), `bad-alloc` (std::bad_alloc, memory pressure) or `cancel`
// (CancelledError, a cancellation storm).  A rule fires on the site's
// hit number H (0-based, counted per site) whenever H % every == offset,
// at most `limit` times (0 = unlimited).  The schedule is a pure
// function of the per-site hit counters -- no clocks, no global RNG --
// so a single-threaded replay of the same request stream injects the
// same faults at the same points.
//
// Job-scoped determinism: with concurrent in-flight jobs (`--serve-jobs
// N`) the *global* per-site counters would interleave nondeterministically
// across jobs.  A thread installs a JobScope(job_index) around one job's
// work; while it is active, the schedule key for a hit becomes
// `job_index + per-site hit number within this scope` and `limit` is
// charged per scope, so whether a given hit fires depends only on the
// job's index in the request stream and the job's own execution trace --
// never on how jobs overlap.  Global SiteStats still aggregate every hit
// and fire (the sums are interleaving-independent).  Threads without a
// scope (unit tests, parallel_for helpers inside a job) keep the global
// counter schedule.
//
// Defining FTES_FI_DISABLED (CMake option -DFTES_FI_DISABLED=ON) compiles
// every seam to `((void)0)`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace ftes::fi {

/// The exception `throw`-kind rules raise: a stand-in for any unexpected
/// internal failure.  Distinct from std::invalid_argument (deterministic
/// input errors) so callers can classify it as transient.
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind { kThrow, kBadAlloc, kCancel };

struct FaultRule {
  std::string site;
  FaultKind kind = FaultKind::kThrow;
  std::uint64_t every = 1;   ///< fire when hit_number % every == offset
  std::uint64_t offset = 0;
  std::uint64_t limit = 0;   ///< max fires for this rule; 0 = unlimited
};

/// Per-site counters: how often the site was reached and how often some
/// rule fired there.  Soak tests assert fired > 0 for every armed class.
struct SiteStats {
  std::uint64_t hits = 0;
  std::uint64_t fired = 0;
};

/// Parses "site:kind[:every=N][:offset=N][:limit=N]".  Throws
/// std::invalid_argument with a usable message on malformed specs.
[[nodiscard]] FaultRule parse_rule(const std::string& spec);

/// Arms the seam with `rules` (replacing any previous set) and resets all
/// counters.  An empty vector disarms.
void configure(std::vector<FaultRule> rules);

/// Disarms the seam and clears rules and counters.
void disarm();

/// Snapshot of the per-site counters, keyed by site name (ordered, so
/// emission order is deterministic).  Sites are counted only while armed.
[[nodiscard]] std::map<std::string, SiteStats> stats();

/// True while at least one rule is armed (relaxed load: the fast path).
[[nodiscard]] bool armed() noexcept;

/// Slow path of FTES_FAULT_POINT: counts the hit and throws if a rule
/// matches.  Call through hit() / the macro, not directly.
void hit_armed(const char* site);

inline void hit(const char* site) {
  if (armed()) hit_armed(site);
}

/// RAII per-job determinism scope (see the header comment).  While alive
/// on a thread, hits on that thread match rules against
/// `job_index + local per-site hit number` instead of the global per-site
/// counter, and rule limits are charged per scope.  Scopes may nest
/// (restores the previous scope on destruction); they are thread-local,
/// so a scope does not cover parallel_for helper threads spawned inside
/// the job.
class JobScope {
 public:
  explicit JobScope(std::uint64_t job_index);
  ~JobScope();

  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  friend void hit_armed(const char* site);

  JobScope* prev_;
  std::uint64_t job_index_;
  std::map<std::string, std::uint64_t> local_hits_;  ///< per-site, this job
  std::map<std::size_t, std::uint64_t> rule_fired_;  ///< per rule index
};

}  // namespace ftes::fi

#ifdef FTES_FI_DISABLED
#define FTES_FAULT_POINT(site) ((void)0)
#else
#define FTES_FAULT_POINT(site) (::ftes::fi::hit(site))
#endif
