// Structural result cache for the job server.
//
// A job's synthesis result is a pure function of the *structure* of the
// problem -- (application, architecture, k) -- and of the
// result-affecting synthesis options (seed, iteration counts, stage
// switches).  canonical_key() serializes exactly that tuple into a
// normalized text key: process names are dropped (they never appear in a
// response payload, so structurally identical problems that differ only
// in naming dedup to one entry), WCET tables are emitted sorted by node
// id, and the thread count, pool and wall-clock budgets are deliberately
// excluded (results are bit-identical for any `--threads`, and a budget
// changes *whether* a result completes, not its value -- incomplete
// results are never cached).
//
// The cache itself is a plain LRU over the full key strings (no hashing
// in the lookup path, so collisions are impossible by construction) with
// a byte budget: every entry is charged key + payload + a fixed
// bookkeeping overhead, inserting past the budget evicts from the
// least-recently-used tail, and an entry larger than the whole budget is
// not stored at all.  Counters surface through a StageMetrics
// ("result_cache" pseudo-stage) in the server's stats report.
//
// Thread safety: every operation -- lookup, contains, insert (including
// the duplicate-key refresh), eviction and every counter read -- holds
// the one internal mutex, so `bytes_used_` always equals the sum of the
// live entries' charges (asserted after every mutation; audit() exposes
// the same check to tests).  The fault-injection seams for
// `cache.lookup` / `cache.insert` live in the *caller*
// (serve/job_server.cpp), not here: the server applies inserts in
// request-sequence order at drain time, and an injected fault must fire
// on the job's own thread where it can be classified and retried, not
// during that ordered drain.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/pipeline.h"
#include "io/app_parser.h"

namespace ftes::serve {

/// Canonical text key of the normalized (application, architecture, k,
/// options) tuple.  See the header comment for what is included.
[[nodiscard]] std::string canonical_key(const Application& app,
                                        const Architecture& arch,
                                        const FaultModel& model,
                                        const SynthesisOptions& options);

class ResultCache {
 public:
  /// `budget_bytes` = 0 disables storage entirely (every lookup misses).
  explicit ResultCache(std::size_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// Looks `key` up; on a hit copies the cached payload into `payload`,
  /// refreshes the entry's LRU position and counts a hit.  On a miss
  /// counts a miss and leaves `payload` untouched.
  [[nodiscard]] bool lookup(const std::string& key, std::string& payload);

  /// True iff `key` is stored; refreshes nothing and counts nothing.
  [[nodiscard]] bool contains(const std::string& key) const;

  /// Inserts (or refreshes) `key` -> `payload`, evicting LRU entries
  /// until the byte budget holds.  A payload that cannot fit even in an
  /// empty cache is dropped (counted as neither insert nor eviction).
  void insert(const std::string& key, const std::string& payload);

  [[nodiscard]] long long hits() const;
  [[nodiscard]] long long misses() const;
  [[nodiscard]] long long evictions() const;
  [[nodiscard]] std::size_t entry_count() const;
  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t budget_bytes() const { return budget_bytes_; }

  /// True iff the byte accounting is exact right now: bytes_used()
  /// equals the sum of the live entries' charges, the map and the LRU
  /// list agree, and the budget holds.  Always compiled in (the
  /// concurrent hammering tests call it); the internal assert form runs
  /// after every mutation in debug builds.
  [[nodiscard]] bool audit() const;

  /// The counters as a "result_cache" pseudo-stage for stats reports.
  [[nodiscard]] StageMetrics metrics() const;

 private:
  struct Entry {
    std::string key;
    std::string payload;
  };
  using LruList = std::list<Entry>;

  [[nodiscard]] static std::size_t charge(const Entry& e) {
    return e.key.size() + e.payload.size() + kEntryOverhead;
  }
  void evict_until_within_budget_locked();
  [[nodiscard]] bool audit_locked() const;

  /// Flat accounting charge per entry for the list/map bookkeeping.
  static constexpr std::size_t kEntryOverhead = 64;

  const std::size_t budget_bytes_;
  mutable std::mutex mutex_;  ///< one lock over every op and counter
  std::size_t bytes_used_ = 0;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::string, LruList::iterator> entries_;
  long long hits_ = 0;
  long long misses_ = 0;
  long long evictions_ = 0;
};

}  // namespace ftes::serve
