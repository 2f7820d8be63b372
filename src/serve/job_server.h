// Synthesis-as-a-service: a long-running, self-healing job server
// (`ftes_cli --serve`).
//
// The server reads newline-delimited requests from an input stream and
// answers exactly one JSON line per request, in order (the line protocol,
// error taxonomy and retry/degradation semantics are documented in
// docs/SERVER.md).  Robustness invariants, all soak-tested with the
// fault-injection seam (util/fault_injection.h):
//
//   * Per-job isolation: any exception a job raises -- parse errors,
//     injected internal faults, std::bad_alloc, CancelledError -- is
//     caught at the job boundary, classified into the typed taxonomy
//     (parse_error / timed_out / cancelled / resource_exhausted /
//     internal) and reported in that job's response.  The server never
//     dies and the stream position never desynchronizes.
//   * Retry with capped exponential backoff for transient classes
//     (internal, resource_exhausted); deterministic failures (parse
//     errors) are never retried.  The attempt count and the total
//     backoff slept are surfaced per response.
//   * Graceful degradation: when a full-tables run exhausts its budget
//     or memory, the job is retried analytic-WCSL-only (`degraded`:
//     true) before giving up with an error response.
//   * Structural result cache: completed, non-degraded results are
//     cached under their canonical key (serve/result_cache.h) and repeat
//     submissions are answered bit-identically without recomputation.
//
// One request loop serves every width (`serve_jobs`): the reader thread
// parses request lines and numbers them; at width 1 each job runs on the
// reader thread, at larger widths on the shared util/thread_pool.  Each
// job runs in its own SynthesisContext whose CancellationToken chains to
// the server-wide token, under a fi::JobScope so fault-injection
// schedules stay a function of the job's stream index.  Cache decisions
// pass a sequence-ordered gate: a lookup that must miss is taken at
// once, any other waits for the job's turn (every earlier job drained),
// which is where a width-1 run takes it.  Responses flow through a
// sequence-numbered reorder buffer whose drain applies cache inserts and
// stats bumps in stream order -- so the output stream is byte-identical
// at every width, wall-clock `seconds` aside (docs/SERVER.md).  A bounded
// in-flight window backpressures the reader; `quit`/EOF/`stats` drain
// every in-flight job before emitting, so no response is ever dropped.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "serve/result_cache.h"
#include "util/cancellation.h"

namespace ftes::serve {

struct ServerOptions {
  int threads = 1;                 ///< worker threads per job (0 = all)
  int serve_jobs = 1;              ///< max in-flight jobs (below 1 acts as 1)
  std::uint64_t default_seed = 1;  ///< seed when the request has none
  int default_iterations = 300;    ///< tabu iterations when none given
  std::size_t cache_bytes = 8u << 20;  ///< result-cache budget (0 = off)
  int max_retries = 2;             ///< extra attempts for transient classes
  /// Base backoff before retry r (0-based) is `retry_backoff_ms << r`,
  /// capped at retry_backoff_cap_ms.  0 disables sleeping (tests).
  long long retry_backoff_ms = 0;
  long long retry_backoff_cap_ms = 1000;
};

/// Aggregate outcome of one serve() run (also emitted as the final stats
/// line of the stream).
struct ServerStats {
  long long jobs = 0;       ///< job requests read
  long long responses = 0;  ///< responses written (== jobs on exit)
  long long ok = 0;
  long long parse_error = 0;
  long long timed_out = 0;
  long long cancelled = 0;
  long long resource_exhausted = 0;
  long long internal = 0;
  long long retries = 0;    ///< extra attempts across all jobs
  long long degraded = 0;   ///< responses served from the degraded rung
  long long cache_hits = 0;
  long long cache_misses = 0;
  long long cache_evictions = 0;
};

class JobServer {
 public:
  explicit JobServer(ServerOptions options);

  /// Runs the request loop until EOF or a `quit` command, writing one
  /// response line per request plus one final stats line.  Never throws
  /// for job-level failures; the caller owns stream lifetime.
  ServerStats serve(std::istream& in, std::ostream& out);

  /// Cancels the server-wide parent token every job's context chains to:
  /// in-flight jobs wind down cooperatively (well-formed `cancelled`
  /// responses), so a transport can shut down without dropping lines.
  void cancel_all() noexcept { server_token_.request_cancel(); }

  [[nodiscard]] const ServerOptions& options() const { return options_; }

  /// Opaque to callers (defined in job_server.cpp); public so the
  /// response-formatting helpers there can name them.
  struct Request;
  struct Outcome;
  struct JobTrace;
  struct ServeState;
  class CacheDecision;

 private:

  /// Parses one `job ...` command line.  Returns false (with `error`
  /// filled) on malformed requests.
  static bool parse_request(const std::string& line, Request& req,
                            std::string& error);
  /// One synthesis attempt; never throws (every failure is classified
  /// into the returned Outcome).  The first non-degraded attempt to
  /// compute the cache key consults `decision` exactly once; a hit
  /// short-circuits the attempt.
  Outcome run_attempt(const Request& req, bool degraded,
                      CacheDecision& decision);
  /// The full job: attempt/retry/degradation loop, insert-intent
  /// recording, response formatting.  The insert itself is applied by
  /// the drain, in stream order.
  JobTrace handle_job(const Request& req, CacheDecision& decision);
  /// Saturating capped exponential backoff before attempt `attempts`+1.
  [[nodiscard]] long long backoff_delay_ms(int attempts) const;

  std::string stats_line(const ServerStats& stats) const;

  ServerOptions options_;
  ResultCache cache_;
  CancellationToken server_token_;  ///< parent of every job's token
};

}  // namespace ftes::serve
