// Tests of the job server's job width (--serve-jobs N): the response
// stream at any width must be byte-identical to the width-1 stream apart
// from the wall-clock `seconds` field -- including cache hit/miss
// patterns under eviction, retry counts, injected-fault schedules and
// every stats line -- and quit/EOF must drain every in-flight job
// (exactly one response per request, never a dropped line).  Also pins
// the saturating retry-backoff arithmetic and the surfaced `backoff_ms`
// field.
#include "serve/job_server.h"

#include <gtest/gtest.h>

#include <climits>
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

/// Blanks every `"seconds": <number>` value: the one wall-clock field of
/// a response (docs/SERVER.md -- the byte-identity guarantee is "modulo
/// the seconds field").
std::string normalize_seconds(std::string line) {
  const std::string needle = "\"seconds\": ";
  std::size_t at = 0;
  while ((at = line.find(needle, at)) != std::string::npos) {
    const std::size_t start = at + needle.size();
    std::size_t end = start;
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
    line.replace(start, end - start, "_");
    at = start;
  }
  return line;
}

std::vector<std::string> normalized(const std::vector<std::string>& lines) {
  std::vector<std::string> out;
  out.reserve(lines.size());
  for (const std::string& l : lines) out.push_back(normalize_seconds(l));
  return out;
}

/// A mixed request stream exercising every response shape the server can
/// emit: fresh computes, duplicate cache-hit fodder, problem-text parse
/// failures, malformed request lines, zero-budget degradation ladders,
/// and a mid-stream `stats` barrier.
std::string mixed_stream(int jobs) {
  std::ostringstream in;
  for (int i = 0; i < jobs; ++i) {
    switch (i % 5) {
      case 0:
        in << "job id=ok" << i << " seed=" << (i / 5) % 3
           << " iterations=20 tables=0 text=" << kInlineProblem << "\n";
        break;
      case 1:
        in << "job id=dup" << i
           << " seed=1 iterations=20 tables=0 text=" << kInlineProblem
           << "\n";
        break;
      case 2:
        in << "job id=garbage" << i << " text=k k k not a problem\n";
        break;
      case 3:
        in << "job id=malformed" << i << " seed=1\n";
        break;
      default:
        in << "job id=budget" << i << " seed=" << 1000 + i
           << " tables=1 total-budget-ms=0 text=" << kInlineProblem << "\n";
        break;
    }
    if (i == jobs / 2) in << "stats\n";
  }
  return in.str();
}

void expect_taxonomy_identity(const ServerStats& stats, int jobs) {
  EXPECT_EQ(stats.jobs, jobs);
  EXPECT_EQ(stats.responses, jobs);
  EXPECT_EQ(stats.ok + stats.parse_error + stats.timed_out + stats.cancelled +
                stats.resource_exhausted + stats.internal,
            jobs);
}

// ------------------------------------------------------- determinism --

// The determinism guarantee: the same request stream answered at widths
// 1, 2 and 8 produces byte-identical output (after blanking the
// wall-clock seconds), including which jobs were cache hits, every
// attempt count, every injected fault and the mid-stream + final stats
// lines.  Widths 0 and -1 act as width 1.  It holds at the default cache
// budget and at one that keeps evicting, where the LRU order decides
// which duplicates hit.
TEST(ServeConcurrency, OutputIsByteIdenticalAcrossJobWidths) {
  const DisarmGuard guard;
  constexpr int kJobs = 60;
  const std::string stream = mixed_stream(kJobs);
  // 3000 bytes holds one tables=0 payload (~2.5 KB).
  constexpr std::size_t kEvictingBudget = 3000;

  for (const std::size_t budget :
       {ServerOptions{}.cache_bytes, kEvictingBudget}) {
    SCOPED_TRACE("cache_bytes " + std::to_string(budget));
    std::vector<std::vector<std::string>> outputs;
    std::vector<ServerStats> stats;
    const std::vector<int> widths = {1, 0, -1, 2, 8};
    for (const int width : widths) {
      fi::configure({
          fi::parse_rule("parse:throw:every=11"),
          fi::parse_rule("pipeline.stage:bad-alloc:every=3:limit=1"),
          fi::parse_rule("serve.job:cancel:every=17"),
      });
      ServerOptions options;
      options.threads = 1;
      options.serve_jobs = width;
      options.cache_bytes = budget;
      ServerStats s;
      outputs.push_back(normalized(run_server(options, stream, &s)));
      stats.push_back(s);
    }

    ASSERT_EQ(outputs[0].size(), static_cast<std::size_t>(kJobs) + 2);
    for (std::size_t w = 1; w < outputs.size(); ++w) {
      ASSERT_EQ(outputs[w].size(), outputs[0].size())
          << "width " << widths[w];
      for (std::size_t i = 0; i < outputs[0].size(); ++i) {
        EXPECT_EQ(outputs[w][i], outputs[0][i])
            << "line " << i << " at width " << widths[w]
            << " diverges from width 1";
      }
    }
    for (const ServerStats& s : stats) {
      expect_taxonomy_identity(s, kJobs);
      EXPECT_EQ(s.ok, stats[0].ok);
      EXPECT_EQ(s.parse_error, stats[0].parse_error);
      EXPECT_EQ(s.timed_out, stats[0].timed_out);
      EXPECT_EQ(s.cancelled, stats[0].cancelled);
      EXPECT_EQ(s.resource_exhausted, stats[0].resource_exhausted);
      EXPECT_EQ(s.internal, stats[0].internal);
      EXPECT_EQ(s.retries, stats[0].retries);
      EXPECT_EQ(s.degraded, stats[0].degraded);
      EXPECT_EQ(s.cache_hits, stats[0].cache_hits);
      EXPECT_EQ(s.cache_misses, stats[0].cache_misses);
      EXPECT_EQ(s.cache_evictions, stats[0].cache_evictions);
    }
    // The stream has real work in every class it can force.
    EXPECT_GT(stats[0].ok, 0);
    EXPECT_GT(stats[0].cache_hits, 0);
    EXPECT_GT(stats[0].parse_error, 0);
    EXPECT_GT(stats[0].timed_out, 0);
    EXPECT_GT(stats[0].retries, 0);
    if (budget == kEvictingBudget) {
      EXPECT_GT(stats[0].cache_evictions, 0);
    }
  }
}

// Same-key duplicates: at width 8, each job of a burst of identical jobs
// behind one fresh compute waits for its turn instead of recomputing;
// every one must come back ok as a cache hit, exactly as width 1 serves
// them.
TEST(ServeConcurrency, ConcurrentDuplicateBurstCoalescesIntoCacheHits) {
  std::ostringstream in;
  for (int i = 0; i < 12; ++i) {
    in << "job id=d" << i << " seed=7 iterations=20 tables=0 text="
       << kInlineProblem << "\n";
  }
  ServerOptions options;
  options.threads = 1;
  options.serve_jobs = 8;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);
  ASSERT_EQ(lines.size(), 13u);
  const std::string reference = normalize_seconds(lines[0]);
  EXPECT_EQ(field(lines[0], "status"), "\"ok\"");
  EXPECT_EQ(field(lines[0], "cached"), "false");
  for (int i = 1; i < 12; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(field(line, "status"), "\"ok\"") << line;
    EXPECT_EQ(field(line, "cached"), "true") << line;
    EXPECT_EQ(field(line, "id"), "\"d" + std::to_string(i) + "\"");
  }
  EXPECT_EQ(stats.cache_hits, 11);
  EXPECT_EQ(stats.cache_misses, 1);
}

// --------------------------------------------------------------- drain --

// quit mid-stream is a drain barrier, not an abort: every job read
// before it gets a well-formed response (in request order) and the final
// stats line still balances jobs == responses == the taxonomy sum.
TEST(ServeConcurrency, QuitMidStreamDrainsEveryInFlightJob) {
  std::ostringstream in;
  constexpr int kBefore = 9;
  for (int i = 0; i < kBefore; ++i) {
    in << "job id=pre" << i << " seed=" << i
       << " iterations=20 tables=0 text=" << kInlineProblem << "\n";
  }
  in << "quit\n";
  for (int i = 0; i < 4; ++i) {
    in << "job id=post" << i << " tables=0 text=" << kInlineProblem << "\n";
  }
  ServerOptions options;
  options.threads = 1;
  options.serve_jobs = 4;
  ServerStats stats;
  const std::vector<std::string> lines = run_server(options, in.str(), &stats);

  ASSERT_EQ(lines.size(), static_cast<std::size_t>(kBefore) + 1);
  for (int i = 0; i < kBefore; ++i) {
    const std::string& line = lines[static_cast<std::size_t>(i)];
    EXPECT_EQ(field(line, "id"), "\"pre" + std::to_string(i) + "\"") << line;
    EXPECT_EQ(field(line, "status"), "\"ok\"") << line;
  }
  EXPECT_EQ(field(lines.back(), "status"), "\"stats\"");
  expect_taxonomy_identity(stats, kBefore);
}

// The invariant under fault pressure at both widths: a fault-injected
// mixed soak must answer every job exactly once, with the terminal
// classes summing to the job count, at width 1 and 4 alike -- and the
// two runs must agree on every counter.
TEST(ServeConcurrency, FaultInjectedSoakKeepsResponsesEqualJobsAtAnyWidth) {
  const DisarmGuard guard;
  constexpr int kJobs = 120;
  const std::string stream = mixed_stream(kJobs);

  std::vector<ServerStats> stats;
  for (const int width : {1, 4}) {
    fi::configure({
        fi::parse_rule("parse:throw:every=7"),
        fi::parse_rule("pipeline.stage:bad-alloc:every=3:limit=1"),
        fi::parse_rule("serve.job:cancel:every=13"),
        fi::parse_rule("cache.lookup:throw:every=41"),
        fi::parse_rule("cache.insert:throw:every=43"),
    });
    ServerOptions options;
    options.threads = 1;
    options.serve_jobs = width;
    ServerStats s;
    const std::vector<std::string> lines = run_server(options, stream, &s);
    EXPECT_EQ(lines.size(), static_cast<std::size_t>(kJobs) + 2);
    expect_taxonomy_identity(s, kJobs);
    stats.push_back(s);
  }
  EXPECT_EQ(stats[0].ok, stats[1].ok);
  EXPECT_EQ(stats[0].parse_error, stats[1].parse_error);
  EXPECT_EQ(stats[0].timed_out, stats[1].timed_out);
  EXPECT_EQ(stats[0].cancelled, stats[1].cancelled);
  EXPECT_EQ(stats[0].resource_exhausted, stats[1].resource_exhausted);
  EXPECT_EQ(stats[0].internal, stats[1].internal);
  EXPECT_EQ(stats[0].retries, stats[1].retries);
  EXPECT_EQ(stats[0].cache_hits, stats[1].cache_hits);
  EXPECT_EQ(stats[0].cache_misses, stats[1].cache_misses);
}

// ------------------------------------------------------------- backoff --

// Regression for the retry-backoff overflow: the delay doubles only
// while it is at most cap/2, so the arithmetic is saturating for any
// flag values (the old recomputed doubling loop could overflow a signed
// long long before its std::min clamp).  The total slept is surfaced as
// the deterministic `backoff_ms` response field: base 6 ms doubling
// under a 10 ms cap across two retries is 6 + 10 = 16 ms.
TEST(ServeConcurrency, BackoffSaturatesAtCapAndIsSurfacedPerResponse) {
  const DisarmGuard guard;
  for (const int width : {1, 4}) {
    fi::configure({fi::parse_rule("serve.job:throw")});
    ServerOptions options;
    options.serve_jobs = width;
    options.max_retries = 2;
    options.retry_backoff_ms = 6;
    options.retry_backoff_cap_ms = 10;
    std::ostringstream in;
    in << "job id=b tables=0 text=" << kInlineProblem << "\n";
    ServerStats stats;
    const std::vector<std::string> lines =
        run_server(options, in.str(), &stats);
    ASSERT_EQ(lines.size(), 2u) << "width " << width;
    EXPECT_EQ(field(lines[0], "status"), "\"internal\"");
    EXPECT_EQ(field(lines[0], "attempts"), "3");
    EXPECT_EQ(field(lines[0], "backoff_ms"), "16");
    EXPECT_EQ(stats.retries, 2);
  }
}

// A base already past the cap (LLONG_MAX-adjacent, the overflow trigger)
// clamps to the cap on every retry instead of wrapping negative.
TEST(ServeConcurrency, HugeBackoffBaseClampsToCapWithoutOverflow) {
  const DisarmGuard guard;
  fi::configure({fi::parse_rule("serve.job:throw")});
  ServerOptions options;
  options.max_retries = 2;
  options.retry_backoff_ms = LLONG_MAX - 1;
  options.retry_backoff_cap_ms = 4;
  std::ostringstream in;
  in << "job id=huge tables=0 text=" << kInlineProblem << "\n";
  const std::vector<std::string> lines = run_server(options, in.str());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(field(lines[0], "attempts"), "3");
  EXPECT_EQ(field(lines[0], "backoff_ms"), "8");  // 2 retries x the 4 ms cap
}

}  // namespace
}  // namespace ftes::serve
