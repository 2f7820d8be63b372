#include "serve/result_cache.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

namespace ftes::serve {

namespace {

void append_double(std::ostringstream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out << buf;
}

}  // namespace

std::string canonical_key(const Application& app, const Architecture& arch,
                          const FaultModel& model,
                          const SynthesisOptions& options) {
  std::ostringstream out;
  out << "v1;arch n=" << arch.node_count() << " payload="
      << arch.bus().slot_payload() << " slots=";
  for (const TdmaSlot& slot : arch.bus().slots()) {
    out << slot.owner.get() << ":" << slot.length << ",";
  }
  out << ";k=" << model.k << ";deadline=" << app.deadline()
      << ";period=" << app.period() << ";";
  for (const Process& p : app.processes()) {
    out << "p";
    std::vector<std::pair<NodeId, Time>> wcets;
    wcets.reserve(p.wcet.size());
    // lint: order-insensitive -- the entries are sorted by node id below
    // before they reach the key, so the map's iteration order is
    // irrelevant
    for (const auto& kv : p.wcet) wcets.push_back(kv);
    std::sort(wcets.begin(), wcets.end());
    for (const auto& [node, wcet] : wcets) {
      out << " " << node.get() << "=" << wcet;
    }
    out << " a=" << p.alpha << " m=" << p.mu << " c=" << p.chi
        << " f=" << (p.frozen ? 1 : 0) << " r=" << p.release;
    if (p.fixed_mapping) out << " map=" << p.fixed_mapping->get();
    if (p.local_deadline) out << " dl=" << *p.local_deadline;
    if (p.fixed_policy) out << " pol=" << static_cast<int>(*p.fixed_policy);
    if (p.soft) {
      out << " soft=";
      append_double(out, p.soft->utility);
      out << ":" << p.soft->soft_deadline << ":" << p.soft->window;
    }
    out << ";";
  }
  for (const Message& m : app.messages()) {
    out << "e " << m.src.get() << ">" << m.dst.get() << " s=" << m.size
        << " f=" << (m.frozen ? 1 : 0) << ";";
  }
  const OptimizeOptions& opt = options.optimize;
  out << "opt seed=" << opt.seed << " it=" << opt.iterations
      << " ten=" << opt.tenure << " nb=" << opt.neighborhood
      << " maxcp=" << opt.max_checkpoints
      << " space=" << static_cast<int>(opt.space)
      << " map=1"  // mapping is always searched; kept so keys stay as-is
      << " cp=" << (opt.optimize_checkpoints ? 1 : 0)
      << " refine=" << (options.refine_checkpoints ? 1 : 0)
      << " tables=" << (options.build_schedule_tables ? 1 : 0);
  return out.str();
}

bool ResultCache::lookup(const std::string& key, std::string& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  payload = it->second->payload;
  ++hits_;
  return true;
}

bool ResultCache::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(key) != 0;
}

void ResultCache::insert(const std::string& key, const std::string& payload) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh in place (by construction the payload of a given key never
    // changes, but a caller may legitimately re-insert one that was
    // evicted and recomputed).  The whole subtract-mutate-re-add runs
    // under the one mutex, so the charge delta is applied atomically and
    // the accounting can never observe a half-updated entry.
    bytes_used_ -= charge(*it->second);
    it->second->payload = payload;
    bytes_used_ += charge(*it->second);
    lru_.splice(lru_.begin(), lru_, it->second);
    evict_until_within_budget_locked();
    assert(audit_locked());
    return;
  }
  Entry entry{key, payload};
  if (charge(entry) > budget_bytes_) return;  // can never fit
  bytes_used_ += charge(entry);
  lru_.push_front(std::move(entry));
  entries_[lru_.begin()->key] = lru_.begin();
  evict_until_within_budget_locked();
  assert(audit_locked());
}

void ResultCache::evict_until_within_budget_locked() {
  while (bytes_used_ > budget_bytes_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_used_ -= charge(victim);
    entries_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
  assert(audit_locked());
}

long long ResultCache::hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

long long ResultCache::misses() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

long long ResultCache::evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

std::size_t ResultCache::entry_count() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::size_t ResultCache::bytes_used() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return bytes_used_;
}

bool ResultCache::audit() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return audit_locked();
}

bool ResultCache::audit_locked() const {
  if (entries_.size() != lru_.size()) return false;
  std::size_t live = 0;
  for (const Entry& e : lru_) {
    const auto it = entries_.find(e.key);
    if (it == entries_.end() || &*it->second != &e) return false;
    live += charge(e);
  }
  return live == bytes_used_ && bytes_used_ <= budget_bytes_;
}

StageMetrics ResultCache::metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  StageMetrics m;
  m.stage = "result_cache";
  m.result_cache_hits = hits_;
  m.result_cache_misses = misses_;
  m.result_cache_evictions = evictions_;
  return m;
}

}  // namespace ftes::serve
