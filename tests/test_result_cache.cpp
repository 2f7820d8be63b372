// Tests of the job server's structural result cache (serve/result_cache.h):
// canonical-key normalization (what is and is not part of a result's
// identity) and the byte-budgeted LRU behind it.
#include "serve/result_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/synthesis.h"
#include "io/app_parser.h"

namespace ftes::serve {
namespace {

constexpr const char* kProblem = R"(
arch nodes=2 slot=5
k 2
deadline 600
process P1 wcet N1=20 N2=30 alpha=5 mu=5 chi=5
process P2 wcet N1=40 N2=60 alpha=5 mu=5 chi=5
process P3 wcet N1=60 alpha=5 mu=5 chi=5
message m1 P1 P2
message m2 P1 P3
)";

// The same structure under different process/message names.
constexpr const char* kRenamed = R"(
arch nodes=2 slot=5
k 2
deadline 600
process Alpha wcet N1=20 N2=30 alpha=5 mu=5 chi=5
process Beta wcet N1=40 N2=60 alpha=5 mu=5 chi=5
process Gamma wcet N1=60 alpha=5 mu=5 chi=5
message x Alpha Beta
message y Alpha Gamma
)";

std::string key_of(const char* text, const SynthesisOptions& options) {
  const ParsedProblem p = parse_problem_string(text);
  return canonical_key(p.app, p.arch, p.model, options);
}

TEST(CanonicalKey, ProcessNamesAreStructurallyIrrelevant) {
  const SynthesisOptions options;
  EXPECT_EQ(key_of(kProblem, options), key_of(kRenamed, options));
}

TEST(CanonicalKey, ThreadsPoolAndBudgetsAreExcluded) {
  SynthesisOptions a;
  SynthesisOptions b;
  b.optimize.threads = 8;
  b.stage_budget_ms = 5000;
  b.total_budget_ms = 60000;
  // None of these change the result's value, only how fast (or whether)
  // it is computed -- so they must not fragment the cache.
  EXPECT_EQ(key_of(kProblem, a), key_of(kProblem, b));
}

TEST(CanonicalKey, ResultAffectingOptionsAreIncluded) {
  const SynthesisOptions base;
  SynthesisOptions seed = base;
  seed.optimize.seed = 99;
  SynthesisOptions iter = base;
  iter.optimize.iterations = 77;
  SynthesisOptions tables = base;
  tables.build_schedule_tables = false;
  SynthesisOptions refine = base;
  refine.refine_checkpoints = false;
  const std::string k0 = key_of(kProblem, base);
  EXPECT_NE(k0, key_of(kProblem, seed));
  EXPECT_NE(k0, key_of(kProblem, iter));
  EXPECT_NE(k0, key_of(kProblem, tables));
  EXPECT_NE(k0, key_of(kProblem, refine));
}

TEST(CanonicalKey, StructuralChangesChangeTheKey) {
  const SynthesisOptions options;
  const std::string k0 = key_of(kProblem, options);

  std::string wcet(kProblem);
  wcet.replace(wcet.find("N1=20"), 5, "N1=21");
  EXPECT_NE(k0, key_of(wcet.c_str(), options));

  std::string faults(kProblem);
  faults.replace(faults.find("k 2"), 3, "k 1");
  EXPECT_NE(k0, key_of(faults.c_str(), options));

  std::string deadline(kProblem);
  deadline.replace(deadline.find("deadline 600"), 12, "deadline 601");
  EXPECT_NE(k0, key_of(deadline.c_str(), options));

  std::string edge(kProblem);
  edge.replace(edge.find("message m2 P1 P3"), 16, "message m2 P2 P3");
  EXPECT_NE(k0, key_of(edge.c_str(), options));
}

// ------------------------------------------------------------------- LRU --

TEST(ResultCache, HitsMissesAndRoundTrip) {
  ResultCache cache(1 << 20);
  std::string out;
  EXPECT_FALSE(cache.lookup("k1", out));
  EXPECT_EQ(cache.misses(), 1);
  cache.insert("k1", "payload-1");
  ASSERT_TRUE(cache.lookup("k1", out));
  EXPECT_EQ(out, "payload-1");
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.entry_count(), 1u);
}

TEST(ResultCache, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Each entry charges key (2) + payload (10) + 64 overhead = 76 bytes;
  // a 200-byte budget holds two entries, never three.
  const std::string payload(10, 'x');
  ResultCache cache(200);
  cache.insert("k1", payload);
  cache.insert("k2", payload);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_EQ(cache.evictions(), 0);

  std::string out;
  ASSERT_TRUE(cache.lookup("k1", out));  // refresh k1: k2 becomes LRU
  cache.insert("k3", payload);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_EQ(cache.entry_count(), 2u);
  EXPECT_LE(cache.bytes_used(), cache.budget_bytes());
  EXPECT_TRUE(cache.lookup("k1", out));
  EXPECT_TRUE(cache.lookup("k3", out));
  EXPECT_FALSE(cache.lookup("k2", out));  // the evicted one
}

TEST(ResultCache, RefreshingAKeyReplacesItsPayload) {
  ResultCache cache(1 << 20);
  cache.insert("k", "old");
  cache.insert("k", "new");
  EXPECT_EQ(cache.entry_count(), 1u);
  std::string out;
  ASSERT_TRUE(cache.lookup("k", out));
  EXPECT_EQ(out, "new");
}

TEST(ResultCache, OversizedEntryIsDroppedNotStored) {
  ResultCache cache(100);
  cache.insert("k", std::string(200, 'x'));
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.evictions(), 0);
  std::string out;
  EXPECT_FALSE(cache.lookup("k", out));
}

TEST(ResultCache, ZeroBudgetDisablesStorage) {
  ResultCache cache(0);
  cache.insert("k", "v");
  std::string out;
  EXPECT_FALSE(cache.lookup("k", out));
  EXPECT_EQ(cache.entry_count(), 0u);
}

// ------------------------------------------------------------ threading --

// Regression for the duplicate-key insert accounting: the whole
// subtract-mutate-re-add of a refresh runs under one lock, so hammering
// the same keys with different-size payloads from many threads can never
// drift `bytes_used_` away from the sum of the live entries' charges.
// Before the fix, a concurrent refresh could interleave with a lookup or
// an eviction between the subtract and the re-add and leave the budget
// accounting permanently wrong (negative/overflowed bytes, or a cache
// that never evicts again).
TEST(ResultCache, ConcurrentHammeringKeepsByteAccountingExact) {
  // Small budget so insertions constantly evict while other threads
  // look up and refresh: the worst interleaving pressure on the
  // accounting.
  ResultCache cache(600);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &failed, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string((t + i) % 7);
        switch (i % 4) {
          case 0:  // fresh or duplicate-key insert, varying charge
            cache.insert(key, std::string(static_cast<std::size_t>(i % 90),
                                          'p'));
            break;
          case 1: {  // lookup refreshes recency under the insert storm
            std::string out;
            (void)cache.lookup(key, out);
            break;
          }
          case 2:  // oversized: must be dropped without touching state
            cache.insert(key, std::string(1000, 'x'));
            break;
          default: {  // read-only probe alongside the mutations
            std::string out;
            (void)cache.peek(key, out);
            break;
          }
        }
        if (!cache.audit()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_FALSE(failed.load()) << "byte accounting diverged from the live "
                                 "entries' charges under concurrency";
  EXPECT_TRUE(cache.audit());
  EXPECT_LE(cache.bytes_used(), cache.budget_bytes());
}

// The degenerate budgets under the same concurrent load: a zero budget
// stores nothing (every insert is a no-op, every lookup a miss) and the
// accounting invariant still holds trivially.
TEST(ResultCache, ZeroBudgetStaysEmptyUnderConcurrentInserts) {
  ResultCache cache(0);
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        cache.insert("k" + std::to_string(i % 5),
                     std::string(static_cast<std::size_t>(t + 1), 'z'));
        std::string out;
        (void)cache.lookup("k" + std::to_string(i % 5), out);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_TRUE(cache.audit());
  EXPECT_EQ(cache.entry_count(), 0u);
  EXPECT_EQ(cache.bytes_used(), 0u);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(ResultCache, MetricsSurfaceAsResultCachePseudoStage) {
  ResultCache cache(1 << 20);
  std::string out;
  (void)cache.lookup("a", out);
  cache.insert("a", "v");
  (void)cache.lookup("a", out);
  const StageMetrics m = cache.metrics();
  EXPECT_EQ(m.stage, "result_cache");
  EXPECT_EQ(m.result_cache_hits, 1);
  EXPECT_EQ(m.result_cache_misses, 1);
  EXPECT_EQ(m.result_cache_evictions, 0);
  EXPECT_NE(m.to_json().find("\"result_cache_hits\": 1"), std::string::npos);
}

}  // namespace
}  // namespace ftes::serve
