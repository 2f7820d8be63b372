#include "serve/job_server.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <functional>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <set>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "util/cancellation.h"
#include "util/fault_injection.h"
#include "util/json_io.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftes::serve {

struct JobServer::Request {
  std::string id;
  std::string file;  ///< problem path; exactly one of file/text is set
  std::string text;  ///< inline problem (escaped newlines unpacked)
  bool has_text = false;
  std::uint64_t seed = 0;
  bool has_seed = false;
  int iterations = 0;
  bool has_iterations = false;
  bool tables = true;
  long long stage_budget_ms = -1;
  long long total_budget_ms = -1;
};

struct JobServer::Outcome {
  enum Class {
    kOk,
    kParseError,
    kTimedOut,
    kCancelled,
    kResourceExhausted,
    kInternal,
  };
  Class cls = kInternal;
  bool cached = false;
  std::string error;
  std::string payload;  ///< result JSON; may be empty (pure error)
};

/// Everything one job hands back to the loop: the formatted response
/// plus the stats deltas and cache insert that the drain applies in
/// stream order.  This is the single funnel the `responses == jobs`
/// invariant rests on: every job -- normal, degraded, faulted, malformed,
/// even one whose response formatting threw -- produces exactly one
/// JobTrace, and the drain bumps exactly one terminal-outcome counter and
/// writes exactly one line per trace.
struct JobServer::JobTrace {
  std::string response;
  Outcome::Class cls = Outcome::kInternal;
  long long retries = 0;
  bool degraded = false;
  std::string cache_key;  ///< the key the job consulted (empty if none)
  bool do_insert = false;  ///< insert insert_payload under cache_key
  std::string insert_payload;
};

namespace {

const char* status_name(JobServer::Outcome::Class cls);

/// Response of last resort: preformatted so emitting it cannot itself
/// throw.  Shape-compatible with format_response() below.
const char* const kLastDitchResponse =
    "{\"id\": \"\", \"status\": \"internal\", \"attempts\": 0, "
    "\"cached\": false, \"degraded\": false, \"backoff_ms\": 0, "
    "\"seconds\": 0.000000, \"error\": \"request handling failed\"}";

/// Unescapes the `text=` value: \n, \t and \\ (a problem file is inlined
/// into one request line).  Returns false on a dangling backslash.
bool unescape_text(const std::string& in, std::string& out,
                   std::string& error) {
  out.clear();
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '\\') {
      out.push_back(in[i]);
      continue;
    }
    if (i + 1 >= in.size()) {
      error = "text= ends in a dangling backslash";
      return false;
    }
    const char c = in[++i];
    if (c == 'n') {
      out.push_back('\n');
    } else if (c == 't') {
      out.push_back('\t');
    } else if (c == '\\') {
      out.push_back('\\');
    } else {
      error = std::string("text= has an unknown escape '\\") + c + "'";
      return false;
    }
  }
  return true;
}

bool parse_ll(const std::string& value, long long& out) {
  try {
    std::size_t pos = 0;
    out = std::stoll(value, &pos);
    return pos == value.size();
  } catch (...) {
    return false;
  }
}

bool parse_u64(const std::string& value, std::uint64_t& out) {
  try {
    std::size_t pos = 0;
    out = std::stoull(value, &pos);
    return pos == value.size() && value[0] != '-';
  } catch (...) {
    return false;
  }
}

/// The job's result payload: every field is a deterministic function of
/// the problem + options (wall-clock metrics are zeroed), so a cached
/// payload is bit-identical to a fresh one for any thread count.
std::string result_payload(Time deadline, const SynthesisResult& result,
                           std::vector<StageMetrics> stages) {
  for (StageMetrics& m : stages) {
    m.seconds = 0.0;
    m.cancel_latency_seconds = 0.0;
  }
  std::ostringstream out;
  out << "{\"schedulable\": " << (result.schedulable ? "true" : "false")
      << ", \"timed_out\": " << (result.timed_out ? "true" : "false")
      << ", \"cancelled\": " << (result.cancelled ? "true" : "false")
      << ", \"wcsl\": " << result.wcsl.makespan
      << ", \"deadline\": " << deadline
      << ", \"evaluations\": " << result.evaluations
      << ", \"tables\": " << (result.schedule ? "true" : "false")
      << ", \"stages\": " << metrics_to_json(stages) << "}";
  return out.str();
}

/// The one response-line formatter: every per-job line -- fresh, cached,
/// degraded, inline parse_error -- funnels through here.  Everything
/// emitted except `seconds` is a deterministic function of the job and
/// its stream index (`backoff_ms` is computed, not measured).
std::string format_response(const std::string& id, const char* status,
                            int attempts, bool cached, bool degraded,
                            long long backoff_ms, double seconds,
                            const std::string& error,
                            const std::string& payload) {
  std::ostringstream res;
  res << "{\"id\": ";
  json_escape(res, id);
  res << ", \"status\": \"" << status << "\""
      << ", \"attempts\": " << attempts
      << ", \"cached\": " << (cached ? "true" : "false")
      << ", \"degraded\": " << (degraded ? "true" : "false")
      << ", \"backoff_ms\": " << backoff_ms << ", \"seconds\": ";
  json_seconds(res, seconds);
  if (!error.empty()) {
    res << ", \"error\": ";
    json_escape(res, error);
  }
  if (!payload.empty()) res << ", \"result\": " << payload;
  res << "}";
  return res.str();
}

const char* status_name(JobServer::Outcome::Class cls) {
  switch (cls) {
    case JobServer::Outcome::kOk: return "ok";
    case JobServer::Outcome::kParseError: return "parse_error";
    case JobServer::Outcome::kTimedOut: return "timed_out";
    case JobServer::Outcome::kCancelled: return "cancelled";
    case JobServer::Outcome::kResourceExhausted: return "resource_exhausted";
    case JobServer::Outcome::kInternal: return "internal";
  }
  return "internal";
}

/// Exactly one terminal-outcome counter bump per job (see JobTrace).
void bump_class(ServerStats& stats, JobServer::Outcome::Class cls) {
  switch (cls) {
    case JobServer::Outcome::kOk: ++stats.ok; break;
    case JobServer::Outcome::kParseError: ++stats.parse_error; break;
    case JobServer::Outcome::kTimedOut: ++stats.timed_out; break;
    case JobServer::Outcome::kCancelled: ++stats.cancelled; break;
    case JobServer::Outcome::kResourceExhausted:
      ++stats.resource_exhausted;
      break;
    case JobServer::Outcome::kInternal: ++stats.internal; break;
  }
}

/// Applies an insert that must never affect the already-formatted
/// response, whatever the allocator does mid-copy.
void guarded_insert(ResultCache& cache, const std::string& key,
                    const std::string& payload) {
  try {
    cache.insert(key, payload);
  } catch (...) {
    // A cache failure must never affect the response.
  }
}

/// Admits jobs to their cache decision strictly in stream order, so the
/// decision each job sees depends only on lower-sequence jobs -- the
/// serial order's data dependency, nothing else.  Every sequence number
/// must pass exactly once, via reach() or skip().  Deadlock-free by
/// construction: a job waits only for lower sequence numbers, and FIFO
/// dispatch guarantees those started first.
class SequenceGate {
 public:
  /// Blocks until it is `seq`'s turn, runs `fn` while holding the turn,
  /// then advances past any already-skipped successors.
  void reach(std::uint64_t seq, const std::function<void()>& fn) {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [&] { return next_ == seq; });
    fn();
    advance_locked();
    cv_.notify_all();
  }

  /// Marks `seq` as having no cache decision (malformed request, jobs
  /// that never computed a key).  Non-blocking; callable in any order.
  void skip(std::uint64_t seq) {
    const std::lock_guard<std::mutex> lock(m_);
    if (next_ == seq) {
      advance_locked();
      cv_.notify_all();
    } else {
      skipped_.insert(seq);
    }
  }

 private:
  void advance_locked() {
    ++next_;
    while (skipped_.erase(next_) != 0) ++next_;
  }

  std::mutex m_;
  std::condition_variable cv_;
  std::uint64_t next_ = 0;
  std::set<std::uint64_t> skipped_;
};

}  // namespace

/// Shared state of one serve() run.  Lock order, outermost first: gate /
/// drain mutex (never both), then key_owners_mutex, then the cache's
/// internal mutex.
struct JobServer::ServeState {
  SequenceGate gate;
  std::mutex key_owners_mutex;
  /// Key -> sequence number of its latest consulter that has not drained
  /// yet; erased when that job drains.
  std::unordered_map<std::string, std::uint64_t> key_owners;

  std::mutex mu;                ///< guards everything below + the output
  std::condition_variable cv;   ///< backpressure, barrier and turn wakeups
  std::map<std::uint64_t, JobTrace> ready;  ///< reorder buffer
  std::uint64_t next_drain = 0;  ///< `seq`'s turn: next_drain == seq
};

/// The exactly-once cache decision of one job, taken where a width-1 run
/// takes it.  run_attempt() calls consult() at the first attempt that
/// computes the canonical key (never on a degraded attempt); a true
/// return is a hit and answers the attempt with the cached payload.
class JobServer::CacheDecision {
 public:
  CacheDecision(ServeState& st, ResultCache& cache, std::uint64_t seq)
      : st_(st), cache_(cache), seq_(seq) {}

  /// The cache gains a key only through the drain-time insert of a job
  /// that consulted that key.  So when no undrained job has consulted
  /// `key` and the cache lacks it as this job passes the gate, the lookup
  /// at this job's turn must miss: it is taken at once (a miss moves no
  /// LRU entry).  Any other job waits for its turn -- every earlier job
  /// drained, no later one -- and looks up exactly where a width-1 run
  /// does, so a hit refreshes LRU recency at the same point too.
  bool consult(const std::string& key, std::string& payload) {
    bool possible_hit = false;
    st_.gate.reach(seq_, [&] {
      const std::lock_guard<std::mutex> lock(st_.key_owners_mutex);
      const bool undrained = !st_.key_owners.insert_or_assign(key, seq_).second;
      possible_hit = undrained || cache_.contains(key);
      key_ = key;  // last: key_ is set iff this job passed the gate
    });
    if (possible_hit) {
      std::unique_lock<std::mutex> lock(st_.mu);
      st_.cv.wait(lock, [&] { return st_.next_drain == seq_; });
    }
    return cache_.lookup(key, payload);
  }

  /// The key consulted so far (empty until the job consults).
  [[nodiscard]] const std::string& key() const { return key_; }

  /// Settles the decision once the job is done: lets the gate pass a job
  /// that never consulted, and hands over the consulted key for the
  /// drain's insert and key_owners release.
  std::string finish() {
    if (key_.empty()) st_.gate.skip(seq_);
    return std::move(key_);
  }

 private:
  ServeState& st_;
  ResultCache& cache_;
  std::uint64_t seq_;
  std::string key_;
};

namespace {

/// Drain-time application of one job, in sequence order: the cache
/// insert, exactly one terminal counter bump, exactly one line.  The
/// insert precedes the key_owners release, so a later job that finds no
/// undrained consulter of the key also finds the key in the cache (unless
/// evicted since).  Caller holds st.mu.
void drain(JobServer::ServeState& st, std::uint64_t seq,
           JobServer::JobTrace&& t, ResultCache& cache, ServerStats& stats,
           std::ostream& out) {
  bump_class(stats, t.cls);
  stats.retries += t.retries;
  if (t.degraded) ++stats.degraded;
  if (t.do_insert) guarded_insert(cache, t.cache_key, t.insert_payload);
  if (!t.cache_key.empty()) {
    const std::lock_guard<std::mutex> lock(st.key_owners_mutex);
    const auto it = st.key_owners.find(t.cache_key);
    if (it != st.key_owners.end() && it->second == seq) {
      st.key_owners.erase(it);
    }
  }
  ++stats.responses;
  out << t.response << "\n" << std::flush;
}

/// Parks `seq`'s trace in the reorder buffer and drains every
/// consecutive ready trace.  Whichever thread completes the next-in-order
/// job performs the drain; no dedicated writer thread exists.
void complete_job(JobServer::ServeState& st, std::uint64_t seq,
                  JobServer::JobTrace&& t, ResultCache& cache,
                  ServerStats& stats, std::ostream& out) {
  const std::lock_guard<std::mutex> lock(st.mu);
  st.ready.emplace(seq, std::move(t));
  for (;;) {
    const auto it = st.ready.find(st.next_drain);
    if (it == st.ready.end()) break;
    JobServer::JobTrace done = std::move(it->second);
    st.ready.erase(it);
    drain(st, st.next_drain, std::move(done), cache, stats, out);
    ++st.next_drain;
  }
  // Notify under the lock so the state cannot be torn down between a
  // waiter's predicate turning true and this notification landing.
  st.cv.notify_all();
}

}  // namespace

JobServer::JobServer(ServerOptions options)
    : options_(options), cache_(options.cache_bytes) {}

bool JobServer::parse_request(const std::string& line, Request& req,
                              std::string& error) {
  std::istringstream in(line);
  std::string tok;
  in >> tok;
  if (tok != "job") {
    error = "unknown command '" + tok + "' (expected job, stats or quit)";
    return false;
  }
  // A malformed token does not stop the scan, so that a later id= is
  // still echoed; the first error is the one reported.
  while (in >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq == std::string::npos) {
      if (error.empty()) error = "expected key=value, got '" + tok + "'";
      continue;
    }
    const std::string key = tok.substr(0, eq);
    std::string value = tok.substr(eq + 1);
    if (key == "text") {
      // text= swallows the rest of the line (the value may contain
      // spaces; newlines travel as \n escapes).
      std::string rest;
      std::getline(in, rest);
      value += rest;
      if (error.empty() && unescape_text(value, req.text, error)) {
        req.has_text = true;
      }
      continue;
    }
    if (key == "id") {
      req.id = value;
    } else if (!error.empty()) {
      continue;
    } else if (key == "file") {
      req.file = value;
    } else if (key == "seed") {
      if (!parse_u64(value, req.seed)) {
        error = "seed= expects an unsigned integer, got '" + value + "'";
      } else {
        req.has_seed = true;
      }
    } else if (key == "iterations") {
      long long it = 0;
      if (!parse_ll(value, it) || it < 1 || it > 1'000'000) {
        error = "iterations= expects 1..1000000, got '" + value + "'";
      } else {
        req.iterations = static_cast<int>(it);
        req.has_iterations = true;
      }
    } else if (key == "tables") {
      if (value == "0") {
        req.tables = false;
      } else if (value == "1") {
        req.tables = true;
      } else {
        error = "tables= expects 0 or 1, got '" + value + "'";
      }
    } else if (key == "stage-budget-ms") {
      if (!parse_ll(value, req.stage_budget_ms) || req.stage_budget_ms < -1) {
        error = "stage-budget-ms= expects an integer >= -1, got '" + value +
                "'";
      }
    } else if (key == "total-budget-ms") {
      if (!parse_ll(value, req.total_budget_ms) || req.total_budget_ms < -1) {
        error = "total-budget-ms= expects an integer >= -1, got '" + value +
                "'";
      }
    } else {
      error = "unknown request key '" + key + "'";
    }
  }
  if (!error.empty()) return false;
  if (req.file.empty() == !req.has_text) {
    error = "exactly one of file= or text= is required";
    return false;
  }
  return true;
}

JobServer::Outcome JobServer::run_attempt(const Request& req, bool degraded,
                                          CacheDecision& decision) {
  Outcome out;
  enum Phase { kSetup, kRun } phase = kSetup;
  try {
    FTES_FAULT_POINT("serve.job");
    std::string text;
    if (!req.file.empty()) {
      std::ifstream in(req.file);
      if (!in) {
        out.cls = Outcome::kParseError;
        out.error = "cannot read '" + req.file + "'";
        return out;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      text = buf.str();
    } else {
      text = req.text;
    }
    ParsedProblem problem = parse_problem_string(text);
    SynthesisOptions synth;
    synth.fault_model = problem.model;
    synth.optimize.seed = req.has_seed ? req.seed : options_.default_seed;
    synth.optimize.iterations =
        req.has_iterations ? req.iterations : options_.default_iterations;
    synth.optimize.threads = options_.threads;
    synth.build_schedule_tables = req.tables && !degraded;
    synth.stage_budget_ms = req.stage_budget_ms;
    synth.total_budget_ms = req.total_budget_ms;
    if (!degraded && options_.cache_bytes > 0 && decision.key().empty()) {
      // The seam fires before the decision is taken, so an injected cache
      // fault is classified (and retried) exactly like any other attempt
      // failure and the next attempt consults afresh.
      FTES_FAULT_POINT("cache.lookup");
      const std::string key =
          canonical_key(problem.app, problem.arch, problem.model, synth);
      std::string cached;
      if (decision.consult(key, cached)) {
        out.cls = Outcome::kOk;
        out.cached = true;
        out.payload = std::move(cached);
        return out;
      }
    }
    // The context owns copies of the problem; construction validates the
    // model (invalid_argument classifies as parse_error via kSetup).
    auto ctx = std::make_unique<SynthesisContext>(problem.app, problem.arch,
                                                  synth);
    // Chain to the server-wide token: cancel_all() winds down every
    // in-flight job cooperatively through the stages' polling bodies.
    ctx->cancel_token().set_parent(&server_token_);
    phase = kRun;
    Pipeline pipeline = Pipeline::default_pipeline();
    const SynthesisResult result = pipeline.run(*ctx);
    if (result.cancelled) {
      out.cls = result.timed_out ? Outcome::kTimedOut : Outcome::kCancelled;
      out.error = result.timed_out ? "wall-clock budget exhausted"
                                   : "cancelled";
      if (result.wcsl.makespan > 0) {
        // Partial but well-formed: surface what the budget bought.
        out.payload = result_payload(problem.app.deadline(), result,
                                     pipeline.metrics());
      }
      return out;
    }
    out.cls = Outcome::kOk;
    out.payload =
        result_payload(problem.app.deadline(), result, pipeline.metrics());
  } catch (const fi::InjectedFault& e) {
    out.cls = Outcome::kInternal;  // transient by definition: retry
    out.error = e.what();
  } catch (const CancelledError& e) {
    out.cls = Outcome::kCancelled;
    out.error = e.what();
  } catch (const std::bad_alloc&) {
    out.cls = Outcome::kResourceExhausted;
    out.error = "allocation failure";
  } catch (const std::exception& e) {
    // Setup-phase failures (parser, model validation) are deterministic
    // properties of the input; anything a stage throws is internal.
    out.cls = phase == kSetup ? Outcome::kParseError : Outcome::kInternal;
    out.error = e.what();
  } catch (...) {
    out.cls = Outcome::kInternal;
    out.error = "unknown non-standard exception";
  }
  return out;
}

long long JobServer::backoff_delay_ms(int attempts) const {
  // Delay before attempt `attempts`+1: base << (attempts-1), capped.
  // Saturating by construction -- the value only doubles while it is at
  // most cap/2, so it can neither overflow nor overshoot the cap, no
  // matter how large --retry-backoff-ms is.
  long long ms = options_.retry_backoff_ms;
  const long long cap = options_.retry_backoff_cap_ms;
  if (ms <= 0 || cap <= 0) return 0;
  if (ms >= cap) return cap;
  for (int r = 1; r < attempts; ++r) {
    if (ms > cap / 2) return cap;
    ms <<= 1;
  }
  return ms < cap ? ms : cap;
}

JobServer::JobTrace JobServer::handle_job(const Request& req,
                                          CacheDecision& decision) {
  const Stopwatch watch;
  JobTrace trace;
  int attempts = 0;
  bool degraded = false;
  long long backoff_total = 0;
  Outcome out;
  for (;;) {
    if (attempts > 0) {
      ++trace.retries;
      const long long delay = backoff_delay_ms(attempts);
      if (delay > 0) {
        backoff_total += delay;
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
    }
    ++attempts;
    out = run_attempt(req, degraded, decision);
    if (out.cls == Outcome::kOk || out.cls == Outcome::kParseError ||
        out.cls == Outcome::kCancelled) {
      break;
    }
    if (out.cls == Outcome::kTimedOut) {
      // Degradation rung 2: shed the exponential table stage and retry
      // analytic-only (fresh budgets).  Rung 3 is the error response.
      if (!degraded && req.tables) {
        degraded = true;
        continue;
      }
      break;
    }
    // Transient classes: internal faults retry as-is, memory pressure
    // degrades first (the table stage dominates the footprint).
    if (out.cls == Outcome::kResourceExhausted && !degraded && req.tables) {
      degraded = true;
      continue;
    }
    if (attempts < 1 + options_.max_retries) continue;
    break;
  }

  trace.cls = out.cls;
  trace.degraded = degraded;
  // A non-degraded ok attempt ran after the consult, so it computed the
  // consulted key: the drain inserts under that key.
  if (out.cls == Outcome::kOk && !out.cached && !degraded &&
      !decision.key().empty()) {
    try {
      // The insert seam fires here, on the job's own thread inside its
      // fi::JobScope; the drain applies the insert in stream order and
      // is not a fault site.
      FTES_FAULT_POINT("cache.insert");
      trace.insert_payload = out.payload;
      trace.do_insert = true;
    } catch (...) {
      // A cache fault (injected or real) must never affect the response.
    }
  }
  trace.response =
      format_response(req.id, status_name(out.cls), attempts, out.cached,
                      degraded, backoff_total, watch.seconds(), out.error,
                      out.payload);
  return trace;
}

std::string JobServer::stats_line(const ServerStats& stats) const {
  std::ostringstream out;
  out << "{\"status\": \"stats\", \"jobs\": " << stats.jobs
      << ", \"responses\": " << stats.responses << ", \"ok\": " << stats.ok
      << ", \"parse_error\": " << stats.parse_error
      << ", \"timed_out\": " << stats.timed_out
      << ", \"cancelled\": " << stats.cancelled
      << ", \"resource_exhausted\": " << stats.resource_exhausted
      << ", \"internal\": " << stats.internal
      << ", \"retries\": " << stats.retries
      << ", \"degraded\": " << stats.degraded << ", \"cache\": {\"hits\": "
      << cache_.hits() << ", \"misses\": " << cache_.misses()
      << ", \"evictions\": " << cache_.evictions()
      << ", \"entries\": " << cache_.entry_count()
      << ", \"bytes\": " << cache_.bytes_used()
      << ", \"budget\": " << cache_.budget_bytes() << "}"
      << ", \"stages\": [" << cache_.metrics().to_json() << "]"
      << ", \"fault_injection\": {";
  bool first = true;
  for (const auto& [site, st] : fi::stats()) {
    if (!first) out << ", ";
    first = false;
    json_escape(out, site);
    out << ": {\"hits\": " << st.hits << ", \"fired\": " << st.fired << "}";
  }
  out << "}}";
  return out.str();
}

ServerStats JobServer::serve(std::istream& in, std::ostream& out) {
  ServerStats stats;
  ServeState st;
  const std::uint64_t window =
      static_cast<std::uint64_t>(std::max(1, options_.serve_jobs));
  // Width 1 runs every job on this thread and never starts the shared
  // pool; so does a worker-less pool (single-core hardware), which would
  // never run a submitted job.
  const bool pooled = window > 1 && ThreadPool::shared().worker_count() > 0;

  // Every in-flight job drains before the line is written: quit, EOF and
  // stats are barriers, so no response is ever dropped or reordered.
  const auto drain_barrier = [&](std::uint64_t submitted) {
    std::unique_lock<std::mutex> lock(st.mu);
    st.cv.wait(lock, [&] { return st.next_drain == submitted; });
  };

  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream head(line);
    std::string cmd;
    head >> cmd;
    if (cmd == "quit") break;
    if (cmd == "stats") {
      drain_barrier(static_cast<std::uint64_t>(stats.jobs));
      out << stats_line(stats) << "\n" << std::flush;
      continue;
    }
    const std::uint64_t seq = static_cast<std::uint64_t>(stats.jobs);
    ++stats.jobs;
    {
      // Backpressure: at most `window` jobs submitted-but-undrained.
      // In-flight jobs always progress (they only ever wait on lower
      // sequence numbers), so this wait always clears.
      std::unique_lock<std::mutex> lock(st.mu);
      st.cv.wait(lock, [&] { return seq - st.next_drain < window; });
    }
    Request req;
    std::string perr;
    bool parsed = false;
    bool parse_threw = false;
    try {
      parsed = parse_request(line, req, perr);
      if (req.id.empty()) req.id = "job" + std::to_string(seq + 1);
    } catch (...) {
      parse_threw = true;
    }
    if (!parsed) {
      // Malformed requests complete inline; they still occupy their
      // sequence slot so the response stream stays in request order.
      JobTrace t;
      try {
        if (parse_threw) {
          t.response = kLastDitchResponse;
        } else {
          t.cls = Outcome::kParseError;
          t.response = format_response(req.id, "parse_error", 0, false, false,
                                       0, 0.0, perr, std::string());
        }
      } catch (...) {
        t.cls = Outcome::kInternal;
        t.response = kLastDitchResponse;
      }
      st.gate.skip(seq);
      complete_job(st, seq, std::move(t), cache_, stats, out);
      continue;
    }
    auto job = [this, &st, &stats, &out, seq, req = std::move(req)] {
      JobTrace t;
      CacheDecision decision(st, cache_, seq);
      try {
        // The job scope pins fault-injection schedules to the job's
        // stream index, whichever thread runs it.
        const fi::JobScope scope(seq);
        t = handle_job(req, decision);
      } catch (...) {
        // Last-ditch per-job guard: even a failure while *formatting* the
        // response must not kill the server or skip a response line.
        t = JobTrace{};
        t.response = kLastDitchResponse;
      }
      t.cache_key = decision.finish();
      complete_job(st, seq, std::move(t), cache_, stats, out);
    };
    if (pooled) {
      ThreadPool::shared().submit(std::move(job));
    } else {
      job();
    }
  }

  drain_barrier(static_cast<std::uint64_t>(stats.jobs));
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  out << stats_line(stats) << "\n" << std::flush;
  return stats;
}

}  // namespace ftes::serve
