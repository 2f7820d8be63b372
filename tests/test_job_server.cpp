// Tests of the synthesis job server (serve/job_server.h): the line
// protocol, the typed error taxonomy, retry/degradation, the result
// cache's bit-identity guarantee, and a 500+ job fault-injected soak
// asserting that the server answers every request exactly once and never
// dies, whatever the seam throws at it.
#include "serve/job_server.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "util/fault_injection.h"

namespace ftes::serve {
namespace {

// The paper's Fig. 3-style example, escaped for a one-line text= value.
const char* const kInlineProblem =
    "arch nodes=2 slot=5\\nk 2\\ndeadline 600\\n"
    "process P1 wcet N1=20 N2=30 alpha=5 mu=5 chi=5\\n"
    "process P2 wcet N1=40 N2=60 alpha=5 mu=5 chi=5\\n"
    "process P3 wcet N1=60 alpha=5 mu=5 chi=5\\n"
    "message m1 P1 P2\\nmessage m2 P1 P3";

struct DisarmGuard {
  ~DisarmGuard() { fi::disarm(); }
};

std::vector<std::string> run_server(const ServerOptions& options,
                                    const std::string& input,
                                    ServerStats* stats_out = nullptr) {
  JobServer server(options);
  std::istringstream in(input);
  std::ostringstream out;
  const ServerStats stats = server.serve(in, out);
  if (stats_out != nullptr) *stats_out = stats;
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  return lines;
}

std::string field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return {};
  const std::size_t start = at + needle.size();
  std::size_t end = line.find_first_of(",}", start);
  if (line[start] == '"') end = line.find('"', start + 1) + 1;
  return line.substr(start, end - start);
}

/// The `"result": {...}` object of a response line (empty when absent).
std::string result_of(const std::string& line) {
  const std::size_t at = line.find("\"result\": ");
  if (at == std::string::npos) return {};
  // The payload runs to the response's closing brace.
  return line.substr(at + 10, line.size() - (at + 10) - 1);
}

TEST(JobServer, AnswersInlineFileAndMalformedRequestsInOrder) {
  ServerOptions options;
  options.default_iterations = 20;
  std::ostringstream in;
  in << "# comment line\n"
     << "\n"
     << "job id=good seed=3 tables=0 text=" << kInlineProblem << "\n"
     << "job seed=3 tables=0 text=" << kInlineProblem << "\n"
     << "job id=nofile file=/nonexistent/problem.ftes\n"
     << "job id=bad text=utter garbage\n"
     << "job id=keyless wibble\n"
     << "job tables=2 id=late\n"
     << "wibble\n"
     << "quit\n"
     << "job id=after-quit text=" << kInlineProblem << "\n";
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);

  ASSERT_EQ(lines.size(), 8u);  // 7 responses + the final stats line
  EXPECT_EQ(field(lines[0], "id"), "\"good\"");
  EXPECT_EQ(field(lines[0], "status"), "\"ok\"");
  EXPECT_NE(result_of(lines[0]).find("\"schedulable\": true"),
            std::string::npos);
  // A request without id= is answered as job<N>, N its 1-based index.
  EXPECT_EQ(field(lines[1], "id"), "\"job2\"");
  EXPECT_EQ(field(lines[1], "status"), "\"ok\"");
  EXPECT_EQ(field(lines[1], "cached"), "true");
  EXPECT_EQ(field(lines[2], "id"), "\"nofile\"");
  EXPECT_EQ(field(lines[2], "status"), "\"parse_error\"");
  EXPECT_EQ(field(lines[3], "status"), "\"parse_error\"");
  EXPECT_EQ(field(lines[4], "id"), "\"keyless\"");
  EXPECT_EQ(field(lines[4], "status"), "\"parse_error\"");
  // An id= after the malformed token is still echoed.
  EXPECT_EQ(field(lines[5], "id"), "\"late\"");
  EXPECT_NE(field(lines[5], "error").find("tables="), std::string::npos);
  EXPECT_EQ(field(lines[6], "id"), "\"job7\"");  // the wibble line
  EXPECT_EQ(field(lines[6], "status"), "\"parse_error\"");
  EXPECT_EQ(field(lines[7], "status"), "\"stats\"");

  EXPECT_EQ(stats.jobs, 7);  // after-quit is never read
  EXPECT_EQ(stats.responses, 7);
  EXPECT_EQ(stats.ok, 2);
  EXPECT_EQ(stats.parse_error, 5);
}

TEST(JobServer, RepeatSubmissionsAreCacheHitsAndBitIdentical) {
  for (const char* seed : {"1", "7", "42"}) {
    std::ostringstream in;
    in << "job id=fresh seed=" << seed << " iterations=40 text="
       << kInlineProblem << "\n"
       << "job id=dup seed=" << seed << " iterations=40 text="
       << kInlineProblem << "\n";

    ServerOptions serial;
    serial.threads = 1;
    ServerStats serial_stats;
    const std::vector<std::string> a =
        run_server(serial, in.str(), &serial_stats);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(field(a[0], "cached"), "false") << "seed " << seed;
    EXPECT_EQ(field(a[1], "cached"), "true") << "seed " << seed;
    const std::string fresh = result_of(a[0]);
    ASSERT_FALSE(fresh.empty());
    // The cached copy replays the fresh payload byte for byte.
    EXPECT_EQ(fresh, result_of(a[1])) << "seed " << seed;
    EXPECT_EQ(serial_stats.cache_hits, 1);
    EXPECT_EQ(serial_stats.cache_misses, 1);

    // A fresh run on a different thread count produces the same bytes:
    // the payload zeroes wall-clock fields and everything else is
    // deterministic, so the cache can serve any client.
    ServerOptions parallel;
    parallel.threads = 4;
    const std::vector<std::string> b = run_server(parallel, in.str());
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(fresh, result_of(b[0])) << "seed " << seed;
  }
}

TEST(JobServer, TablesAndSeedChangesAreDistinctCacheEntries) {
  std::ostringstream in;
  in << "job id=a seed=1 tables=0 text=" << kInlineProblem << "\n"
     << "job id=b seed=2 tables=0 text=" << kInlineProblem << "\n"
     << "job id=c seed=1 tables=1 text=" << kInlineProblem << "\n";
  ServerOptions options;
  options.default_iterations = 20;
  ServerStats stats;
  (void)run_server(options, in.str(), &stats);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 3);
}

TEST(JobServer, TinyCacheBudgetEvictsObservably) {
  // One tables=0 payload is ~2.5 KB, so a 3 KB budget holds exactly one
  // entry: A, B, A again is insert, evict+insert, evict+insert.
  std::ostringstream in;
  in << "job id=a seed=1 tables=0 text=" << kInlineProblem << "\n"
     << "job id=b seed=2 tables=0 text=" << kInlineProblem << "\n"
     << "job id=a2 seed=1 tables=0 text=" << kInlineProblem << "\n";
  ServerOptions options;
  options.default_iterations = 20;
  options.cache_bytes = 3000;
  ServerStats stats;
  (void)run_server(options, in.str(), &stats);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.cache_misses, 3);
  EXPECT_EQ(stats.cache_evictions, 2);
}

TEST(JobServer, ZeroBudgetDegradesThenReportsTimedOut) {
  std::ostringstream in;
  in << "job id=z tables=1 total-budget-ms=0 text=" << kInlineProblem << "\n";
  ServerOptions options;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);
  ASSERT_EQ(lines.size(), 2u);
  // Rung 1 (full tables) and rung 2 (analytic-only) both blow the 0 ms
  // budget; the response is a typed timeout, not a dead server.
  EXPECT_EQ(field(lines[0], "status"), "\"timed_out\"");
  EXPECT_EQ(field(lines[0], "degraded"), "true");
  EXPECT_EQ(stats.timed_out, 1);
  EXPECT_EQ(stats.degraded, 1);
  EXPECT_EQ(stats.ok, 0);
}

TEST(JobServer, TransientFaultsAreRetriedWithSurfacedAttempts) {
  const DisarmGuard guard;
  fi::configure({fi::parse_rule("serve.job:throw:limit=2")});
  std::ostringstream in;
  in << "job id=flaky tables=0 text=" << kInlineProblem << "\n";
  ServerOptions options;
  options.default_iterations = 20;
  options.max_retries = 2;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(field(lines[0], "status"), "\"ok\"");
  EXPECT_EQ(field(lines[0], "attempts"), "3");
  EXPECT_EQ(stats.retries, 2);
  EXPECT_EQ(stats.ok, 1);
}

TEST(JobServer, PersistentFaultExhaustsRetriesIntoInternal) {
  const DisarmGuard guard;
  fi::configure({fi::parse_rule("serve.job:throw")});  // fires every attempt
  std::ostringstream in;
  in << "job id=doomed tables=0 text=" << kInlineProblem << "\n"
     << "job id=also-doomed tables=0 text=" << kInlineProblem << "\n";
  ServerOptions options;
  options.max_retries = 2;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);
  ASSERT_EQ(lines.size(), 3u);  // the server survives to answer both + stats
  EXPECT_EQ(field(lines[0], "status"), "\"internal\"");
  EXPECT_EQ(field(lines[0], "attempts"), "3");
  EXPECT_EQ(field(lines[1], "status"), "\"internal\"");
  EXPECT_EQ(stats.internal, 2);
  EXPECT_EQ(stats.retries, 4);
}

TEST(JobServer, AllocationFailureDegradesBeforeGivingUp) {
  const DisarmGuard guard;
  // The first attempt's first pipeline stage dies of bad_alloc; the
  // degraded retry runs clean and succeeds analytic-only.
  fi::configure({fi::parse_rule("pipeline.stage:bad-alloc:limit=1")});
  std::ostringstream in;
  in << "job id=tight tables=1 text=" << kInlineProblem << "\n";
  ServerOptions options;
  options.default_iterations = 20;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(field(lines[0], "status"), "\"ok\"");
  EXPECT_EQ(field(lines[0], "degraded"), "true");
  EXPECT_EQ(field(lines[0], "attempts"), "2");
  EXPECT_NE(result_of(lines[0]).find("\"tables\": false"), std::string::npos);
  EXPECT_EQ(stats.degraded, 1);
  // Degraded results must not poison the cache with a lesser answer.
  EXPECT_EQ(stats.cache_hits, 0);
}

TEST(JobServer, InjectedCancellationIsTypedNotRetried) {
  const DisarmGuard guard;
  fi::configure({fi::parse_rule("serve.job:cancel:limit=1")});
  std::ostringstream in;
  in << "job id=x tables=0 text=" << kInlineProblem << "\n";
  ServerOptions options;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(field(lines[0], "status"), "\"cancelled\"");
  EXPECT_EQ(field(lines[0], "attempts"), "1");
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.retries, 0);
}

// ------------------------------------------------------------------ soak --

// The acceptance soak: 520 mixed jobs with all three fault kinds armed on
// a deterministic schedule.  Every request gets exactly one well-formed
// response, every taxonomy class and fault kind is exercised, and the
// duplicate jobs that complete are answered bit-identically.
//
// Fault schedules are matched per job (fi::JobScope): a hit's schedule
// key is the job's stream index plus its own per-site hit count, and
// `limit` is charged per job.  Only a handful of jobs in this stream
// run the whole pipeline (the rest are cache hits, parse failures or
// zero-budget jobs, whose attempts reach the stage seam for the first
// stage only), so the pipeline.stage rule uses every=3:limit=1 -- each
// full-pipeline job takes exactly one bad_alloc somewhere in its three
// stage hits and then completes on retry.
TEST(JobServerSoak, FiveHundredFaultInjectedJobsNeverKillTheServer) {
  const DisarmGuard guard;
  fi::configure({
      fi::parse_rule("parse:throw:every=11"),
      fi::parse_rule("pipeline.stage:bad-alloc:every=3:limit=1"),
      fi::parse_rule("serve.job:cancel:every=17"),
  });

  constexpr int kJobs = 520;
  std::ostringstream in;
  for (int i = 0; i < kJobs; ++i) {
    switch (i % 5) {
      case 0:  // a rotating trio of valid jobs: heavy duplication
        in << "job id=ok" << i << " seed=" << (i / 5) % 3
           << " iterations=20 tables=0 text=" << kInlineProblem << "\n";
        break;
      case 1:  // exact duplicate of the seed=1 job: cache-hit fodder
        in << "job id=dup" << i
           << " seed=1 iterations=20 tables=0 text=" << kInlineProblem
           << "\n";
        break;
      case 2:  // problem text that cannot parse
        in << "job id=garbage" << i << " text=k k k not a problem\n";
        break;
      case 3:  // request line that cannot parse (no file=/text=)
        in << "job id=malformed" << i << " seed=1\n";
        break;
      default:  // 0 ms budget: the degradation ladder under pressure
        in << "job id=budget" << i << " seed=" << 1000 + i
           << " tables=1 total-budget-ms=0 text=" << kInlineProblem << "\n";
        break;
    }
  }

  ServerOptions options;
  options.threads = 1;
  options.max_retries = 2;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);

  // Exactly one response per request, plus the final stats line.
  EXPECT_EQ(stats.jobs, kJobs);
  EXPECT_EQ(stats.responses, kJobs);
  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kJobs) + 1);
  for (int i = 0; i < kJobs; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(line.front(), '{') << line;
    EXPECT_EQ(line.back(), '}') << line;
    const std::string status = field(line, "status");
    EXPECT_TRUE(status == "\"ok\"" || status == "\"parse_error\"" ||
                status == "\"timed_out\"" || status == "\"cancelled\"" ||
                status == "\"resource_exhausted\"" || status == "\"internal\"")
        << line;
  }
  EXPECT_EQ(field(lines.back(), "status"), "\"stats\"");
  EXPECT_EQ(stats.ok + stats.parse_error + stats.timed_out + stats.cancelled +
                stats.resource_exhausted + stats.internal,
            kJobs);

  // Every taxonomy class the stream can force deterministically showed up.
  EXPECT_GT(stats.ok, 0);
  EXPECT_GT(stats.parse_error, 0);
  EXPECT_GT(stats.timed_out, 0);
  EXPECT_GT(stats.cancelled, 0);
  EXPECT_GT(stats.retries, 0);
  EXPECT_GT(stats.cache_hits, 0);

  // No armed fault class went unexercised.
  const auto fired = fi::stats();
  ASSERT_EQ(fired.count("parse"), 1u);
  ASSERT_EQ(fired.count("pipeline.stage"), 1u);
  ASSERT_EQ(fired.count("serve.job"), 1u);
  EXPECT_GT(fired.at("parse").fired, 0u);
  EXPECT_GT(fired.at("pipeline.stage").fired, 0u);
  EXPECT_GT(fired.at("serve.job").fired, 0u);

  // Duplicate jobs that completed agree byte for byte.
  std::string reference;
  int completed_dups = 0;
  for (int i = 1; i < kJobs; i += 5) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    if (field(line, "status") != "\"ok\"") continue;
    ++completed_dups;
    const std::string payload = result_of(line);
    ASSERT_FALSE(payload.empty()) << line;
    if (reference.empty()) {
      reference = payload;
    } else {
      EXPECT_EQ(payload, reference) << "line " << i;
    }
  }
  EXPECT_GT(completed_dups, 1);
}

}  // namespace
}  // namespace ftes::serve
