#include "sched/cond_scheduler.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

#include "fault/recovery.h"
#include "sched/list_scheduler.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ftes {

namespace {

/// Static data about one copy, shared by all scenarios.
struct CopyInfo {
  CopyRef ref;
  NodeId node;
  RecoveryParams params;
  int checkpoints = 0;   ///< 0 = pure replica
  int recoveries = 0;
  Time release = 0;
  bool frozen = false;
  std::string name;      ///< display: "P1" or "P1(2)"
  Time rank = 0;         ///< list-scheduling priority
};

struct TripleKey {
  int dst_copy;  ///< global copy index of the consumer
  std::int32_t msg;
  int src_copy;  ///< producer copy index within its plan; -1 for frozen sync
  friend bool operator<(const TripleKey& a, const TripleKey& b) {
    if (a.dst_copy != b.dst_copy) return a.dst_copy < b.dst_copy;
    if (a.msg != b.msg) return a.msg < b.msg;
    return a.src_copy < b.src_copy;
  }
};

class CondSim {
 public:
  CondSim(const Application& app, const Architecture& arch,
          const PolicyAssignment& pa, const FaultModel& fm,
          const CondScheduleOptions& opts)
      : app_(app), arch_(arch), pa_(pa), fm_(fm), opts_(opts) {
    build_static_info();
  }

  CondScheduleResult run() {
    const std::vector<FaultScenario> scenarios =
        enumerate_scenarios(app_, pa_, fm_.k);
    if (static_cast<int>(scenarios.size()) > opts_.max_scenarios) {
      throw std::length_error("scenario tree exceeds max_scenarios");
    }
    threads_ = resolve_threads(opts_.threads);
    pool_ = opts_.pool ? opts_.pool : &ThreadPool::shared();

    // Register every condition id a scenario can reveal, serially and in
    // scenario order, so the id numbering matches the serial generator and
    // the simulations below can run concurrently with a read-only registry.
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      if ((s & 1023u) == 0u) throw_if_cancelled();
      register_scenario_conditions(scenarios[s]);
    }

    CondScheduleResult result;
    // Fixpoint over frozen starts.  Within one iteration the scenarios are
    // independent (they read the same pins), so they simulate in parallel
    // into scenario-ordered slots.
    for (int iter = 0; iter < opts_.max_fixpoint_iterations; ++iter) {
      result.traces.assign(scenarios.size(), ScenarioTrace{});
      bool moved = false;
      parallel_for(*pool_, scenarios.size(), threads_, [&](std::size_t i) {
        // Chunk-granular cancellation point: a deadline fires within one
        // scenario simulation; the partial traces are discarded below.
        if (opts_.cancel && opts_.cancel->poll()) return;
        result.traces[i] = simulate(scenarios[i]);
      });
      throw_if_cancelled();
      // Raise pins to the observed maxima.
      for (const ScenarioTrace& tr : result.traces) {
        for (const ExecTrace& e : tr.execs) {
          const std::size_t ci = static_cast<std::size_t>(
              copy_at(e.copy.process.get(), e.copy.copy));
          if (!copies_[ci].frozen) continue;
          Time& pin = copy_pins_[ci];
          if (e.start > pin) {
            pin = e.start;
            moved = true;
          }
        }
        for (const TxTrace& tx : tr.txs) {
          if (tx.is_condition || !is_frozen_msg(tx.msg)) continue;
          Time& pin = msg_pins_[static_cast<std::size_t>(tx.msg.get())];
          if (tx.start > pin) {
            pin = tx.start;
            moved = true;
          }
        }
      }
      if (!moved) break;
      if (iter + 1 == opts_.max_fixpoint_iterations) {
        FTES_LOG(kWarn) << "frozen-start fixpoint did not converge";
      }
    }

    result.scenario_count = static_cast<int>(result.traces.size());
    for (const ScenarioTrace& tr : result.traces) {
      result.wcsl = std::max(result.wcsl, tr.makespan);
    }
    for (std::size_t ci = 0; ci < copies_.size(); ++ci) {
      if (copies_[ci].frozen) {
        result.frozen_starts[copies_[ci].name] = copy_pins_[ci];
      }
    }
    // Report pinned frozen message starts alongside process pins.
    for (MessageId mid : frozen_msgs_) {
      result.frozen_starts[app_.message(mid).name] =
          msg_pins_[static_cast<std::size_t>(mid.get())];
    }
    build_tables(result);
    result.tables.wcsl = result.wcsl;
    result.tables.scenario_count = result.scenario_count;
    return result;
  }

 private:
  // ---------------------------------------------------------------- setup
  void build_static_info() {
    // Flat (process, copy) -> global copy index via per-process prefix
    // offsets: the simulate() inner loops and the fixpoint pin updates hit
    // this lookup constantly, so no std::map on that path.
    first_copy_ = copy_offsets(app_, pa_);
    for (int i = 0; i < app_.process_count(); ++i) {
      const ProcessId pid{i};
      const Process& proc = app_.process(pid);
      const ProcessPlan& plan = pa_.plan(pid);
      for (int j = 0; j < plan.copy_count(); ++j) {
        const CopyPlan& cp = plan.copies[static_cast<std::size_t>(j)];
        CopyInfo info;
        info.ref = CopyRef{pid, j};
        info.node = cp.node;
        info.params =
            RecoveryParams{proc.wcet_on(cp.node), proc.alpha, proc.mu,
                           proc.chi};
        info.checkpoints = cp.checkpoints;
        info.recoveries = cp.recoveries;
        info.release = proc.release;
        info.frozen = opts_.respect_transparency && proc.frozen;
        info.name = copy_row_name(proc.name, plan, j);
        assert(copy_at(pid.get(), j) == static_cast<int>(copies_.size()));
        copies_.push_back(info);
      }
    }
    copy_pins_.assign(copies_.size(), 0);
    msg_pins_.assign(static_cast<std::size_t>(app_.message_count()), 0);
    for (int mi = 0; mi < app_.message_count(); ++mi) {
      if (is_frozen_msg(MessageId{mi})) frozen_msgs_.push_back(MessageId{mi});
    }

    // Priorities: the list scheduler's partial critical path ranks (same
    // copy indexing).
    const std::vector<Time> rank =
        partial_critical_path_ranks(app_, arch_, pa_);
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      copies_[i].rank = rank[i];
    }
  }

  [[nodiscard]] bool is_frozen_msg(MessageId m) const {
    return opts_.respect_transparency &&
           app_.message(m).frozen;
  }

  /// True if message m needs a bus transmission under this assignment.
  [[nodiscard]] bool msg_needs_bus(const Message& m) const {
    if (is_frozen_msg(MessageId{static_cast<std::int32_t>(
            &m - app_.messages().data())})) {
      return true;
    }
    const ProcessPlan& sp = pa_.plan(m.src);
    const ProcessPlan& dp = pa_.plan(m.dst);
    for (const CopyPlan& s : sp.copies) {
      for (const CopyPlan& d : dp.copies) {
        if (s.node != d.node) return true;
      }
    }
    return false;
  }

  // ------------------------------------------------------------- scenario
  struct CopyRun {
    bool committed = false;
    bool survived = true;
    int faults = 0;
    Time duration = 0;  ///< start -> end (completion or death)
    Time start = 0;
    Time end = 0;
    int unresolved = 0;
    Time data_ready = 0;
    std::vector<Time> attempt_offsets;           ///< relative
    std::vector<Reveal> reveal_offsets;          ///< relative times
  };

  struct PendingTx {
    TxTrace tx;          ///< ready/sender/meta filled; start/finish pending
    int seq = 0;         ///< deterministic tie-break
  };

  ScenarioTrace simulate(const FaultScenario& scenario) const {
    ScenarioTrace trace;
    trace.scenario = scenario;

    std::vector<CopyRun> runs(copies_.size());
    // Precompute per-copy fate.
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      const CopyInfo& ci = copies_[i];
      CopyRun& run = runs[i];
      run.faults = scenario.faults_on(ci.ref);
      const int n = std::max(ci.checkpoints, 1);
      const int r_cond = ci.checkpoints >= 1 ? ci.recoveries : 0;
      run.survived = run.faults <= r_cond;
      if (run.survived) {
        run.duration =
            ci.checkpoints >= 1
                ? checkpointed_exec_time(ci.params, ci.checkpoints, run.faults)
                : replica_exec_time(ci.params);
      } else {
        run.duration = fault_occurrence_offset(ci.params, n, r_cond + 1) +
                       ci.params.alpha;
      }
      run.attempt_offsets.push_back(0);
      const int executed_recoveries =
          run.survived ? run.faults : r_cond;
      for (int a = 1; a <= executed_recoveries; ++a) {
        run.attempt_offsets.push_back(
            recovery_start_offset(ci.params, n, a));
      }
      // Condition reveals, as derived in DESIGN.md / recovery.h.  All ids
      // were registered up front (run()), so the lookups are read-only and
      // simulate() is safe to run concurrently across scenarios.
      if (run.survived) {
        const int last = std::min(run.faults + 1, r_cond);
        for (int j = 1; j <= last; ++j) {
          const bool value = j <= run.faults;
          const Time at = value
                              ? fault_occurrence_offset(ci.params, n, j)
                              : run.duration;
          run.reveal_offsets.push_back(Reveal{cond_lookup(ci, j), value, at});
        }
      } else {
        for (int j = 1; j <= r_cond + 1; ++j) {
          run.reveal_offsets.push_back(
              Reveal{cond_lookup(ci, j), true,
                     fault_occurrence_offset(ci.params, n, j)});
        }
      }
      // Dependency counters: one triple per (input msg, producer copy) or
      // one per frozen message.
      for (MessageId mid : app_.inputs(ci.ref.process)) {
        if (is_frozen_msg(mid)) {
          run.unresolved += 1;
        } else {
          run.unresolved += pa_.plan(app_.message(mid).src).copy_count();
        }
      }
    }

    // lint: cold-path -- per-scenario simulation state during table
    // generation; the per-move evaluation path (opt/eval_context.h) never
    // enters the conditional scheduler
    std::map<TripleKey, bool> resolved;
    auto resolve = [&](int dst_copy, MessageId mid, int src_copy, Time at) {
      TripleKey key{dst_copy, mid.get(), src_copy};
      auto [it, inserted] = resolved.emplace(key, true);
      if (!inserted) return;
      CopyRun& run = runs[static_cast<std::size_t>(dst_copy)];
      run.data_ready = std::max(run.data_ready, at);
      --run.unresolved;
      assert(run.unresolved >= 0);
    };
    std::vector<PendingTx> pending;
    int tx_seq = 0;
    // Frozen messages (by frozen_msgs_ slot): emitted once all producer
    // copies committed.
    std::vector<bool> frozen_emitted(frozen_msgs_.size(), false);
    std::size_t frozen_unemitted = frozen_msgs_.size();

    std::vector<Time> node_free(static_cast<std::size_t>(arch_.node_count()),
                                0);
    Time bus_free = 0;
    std::size_t committed = 0;

    // Resolution policy: local consumers of a copy resolve at the copy's
    // end (completion or locally observed death); remote consumers resolve
    // at the data transmission's end (survivor) or at the death broadcast's
    // end (dead copy).  resolve() is idempotent per triple.
    auto commit_copy_fixed = [&](std::size_t i, Time start) {
      const CopyInfo& ci = copies_[i];
      CopyRun& run = runs[i];
      run.committed = true;
      run.start = start;
      run.end = start + run.duration;
      node_free[static_cast<std::size_t>(ci.node.get())] = run.end;
      ++committed;

      for (const Reveal& rel : run.reveal_offsets) {
        Reveal abs{rel.cond_id, rel.value, start + rel.at};
        trace.reveals.push_back(abs);
        if (!opts_.schedule_condition_broadcasts) continue;
        PendingTx tx;
        tx.tx.is_condition = true;
        tx.tx.cond_id = rel.cond_id;
        tx.tx.value = rel.value;
        tx.tx.sender = ci.node;
        tx.tx.ready = abs.at;
        tx.seq = ++tx_seq;
        pending.push_back(tx);
      }

      for (MessageId mid : app_.outputs(ci.ref.process)) {
        const Message& m = app_.message(mid);
        if (is_frozen_msg(mid)) continue;
        const bool bus = msg_needs_bus(m);
        // Local consumers always resolve at the copy's end (completion or
        // locally observed death).
        const ProcessPlan& dp = pa_.plan(m.dst);
        for (int dj = 0; dj < dp.copy_count(); ++dj) {
          const int dst = copy_at(m.dst.get(), dj);
          if (copies_[static_cast<std::size_t>(dst)].node == ci.node) {
            resolve(dst, mid, ci.ref.copy, run.end);
          } else if (!run.survived && !opts_.schedule_condition_broadcasts) {
            // Idealized signalling: remote consumers learn the death
            // instantly (no death broadcast will be scheduled).
            resolve(dst, mid, ci.ref.copy, run.end);
          }
        }
        if (run.survived && bus) {
          PendingTx tx;
          tx.tx.msg = mid;
          tx.tx.src_copy = ci.ref.copy;
          tx.tx.sender = ci.node;
          tx.tx.ready = run.end;
          tx.seq = ++tx_seq;
          pending.push_back(tx);
        }
      }
    };

    // Death broadcasts double as remote death knowledge: when a condition
    // transmission that encodes "fault r+1" of a dead copy commits, remote
    // consumers of that copy's messages resolve.
    auto on_condition_committed = [&](const TxTrace& tx) {
      const CopyRef src = cond_copy_.at(tx.cond_id);
      const std::size_t ci = static_cast<std::size_t>(
          copy_at(src.process.get(), src.copy));
      const CopyInfo& info = copies_[ci];
      const CopyRun& run = runs[ci];
      if (run.survived) return;
      const int r_cond = info.checkpoints >= 1 ? info.recoveries : 0;
      if (cond_index_.at(tx.cond_id) != r_cond + 1) return;
      for (MessageId mid : app_.outputs(src.process)) {
        if (is_frozen_msg(mid)) continue;
        const Message& m = app_.message(mid);
        const ProcessPlan& dp = pa_.plan(m.dst);
        for (int dj = 0; dj < dp.copy_count(); ++dj) {
          const int dst = copy_at(m.dst.get(), dj);
          if (copies_[static_cast<std::size_t>(dst)].node != info.node) {
            resolve(dst, mid, src.copy, tx.finish);
          }
        }
      }
    };

    // ---- main event loop -------------------------------------------------
    while (committed < copies_.size() || !pending.empty() ||
           frozen_unemitted > 0) {
      // Emit frozen messages whose producers are all committed, in id
      // order.
      for (std::size_t f = 0; f < frozen_msgs_.size(); ++f) {
        if (frozen_emitted[f]) continue;
        const MessageId mid = frozen_msgs_[f];
        const Message& m = app_.message(mid);
        const ProcessPlan& sp = pa_.plan(m.src);
        bool all_committed = true;
        Time earliest = kTimeInfinity;
        for (int sj = 0; sj < sp.copy_count(); ++sj) {
          const CopyRun& run =
              runs[static_cast<std::size_t>(copy_at(m.src.get(), sj))];
          if (!run.committed) {
            all_committed = false;
            break;
          }
          if (run.survived) earliest = std::min(earliest, run.end);
        }
        if (!all_committed) continue;
        if (earliest == kTimeInfinity) {
          throw std::logic_error(
              "all producer copies of a frozen message died (inadmissible "
              "scenario reached a frozen sync)");
        }
        PendingTx tx;
        tx.tx.msg = mid;
        tx.tx.src_copy = -1;
        tx.tx.sender =
            copies_[static_cast<std::size_t>(copy_at(m.src.get(), 0))]
                .node;
        tx.tx.ready = std::max(
            earliest, msg_pins_[static_cast<std::size_t>(mid.get())]);
        tx.seq = ++tx_seq;
        pending.push_back(tx);
        frozen_emitted[f] = true;
        --frozen_unemitted;
      }

      // Earliest startable copy.
      Time best_start = kTimeInfinity;
      int best = -1;
      for (std::size_t i = 0; i < copies_.size(); ++i) {
        const CopyRun& run = runs[i];
        if (run.committed || run.unresolved > 0) continue;
        const CopyInfo& ci = copies_[i];
        Time start = std::max({run.data_ready, ci.release,
                               node_free[static_cast<std::size_t>(
                                   ci.node.get())]});
        if (ci.frozen) start = std::max(start, copy_pins_[i]);
        if (start < best_start ||
            (start == best_start && best >= 0 &&
             copies_[static_cast<std::size_t>(best)].rank < ci.rank)) {
          best_start = start;
          best = static_cast<int>(i);
        }
      }

      // Earliest pending transmission.
      Time best_tx_ready = kTimeInfinity;
      std::size_t tx_pick = pending.size();
      for (std::size_t t = 0; t < pending.size(); ++t) {
        if (pending[t].tx.ready < best_tx_ready ||
            (pending[t].tx.ready == best_tx_ready &&
             tx_pick < pending.size() &&
             pending[t].seq < pending[tx_pick].seq)) {
          best_tx_ready = pending[t].tx.ready;
          tx_pick = t;
        }
      }

      if (tx_pick < pending.size() &&
          (best < 0 || best_tx_ready <= best_start)) {
        PendingTx ptx = pending[tx_pick];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(tx_pick));
        TxTrace& tx = ptx.tx;
        const std::int64_t size =
            tx.is_condition ? 1 : app_.message(tx.msg).size;
        const Time ready = std::max(tx.ready, bus_free);
        tx.start = arch_.bus().next_slot_start(tx.sender, ready);
        tx.finish = arch_.bus().transmission_finish(tx.sender, ready, size);
        bus_free = tx.finish;
        if (tx.is_condition) {
          on_condition_committed(tx);
        } else if (tx.src_copy < 0) {
          // Frozen sync: resolves every consumer copy.
          const Message& m = app_.message(tx.msg);
          const ProcessPlan& dp = pa_.plan(m.dst);
          for (int dj = 0; dj < dp.copy_count(); ++dj) {
            resolve(copy_at(m.dst.get(), dj), tx.msg, -1, tx.finish);
          }
        } else {
          // Data: remote consumers resolve at the transmission's end.
          const Message& m = app_.message(tx.msg);
          const ProcessPlan& dp = pa_.plan(m.dst);
          for (int dj = 0; dj < dp.copy_count(); ++dj) {
            const int dst = copy_at(m.dst.get(), dj);
            if (copies_[static_cast<std::size_t>(dst)].node != tx.sender) {
              resolve(dst, tx.msg, tx.src_copy, tx.finish);
            }
          }
        }
        trace.txs.push_back(tx);
        continue;
      }

      if (best < 0) {
        if (committed == copies_.size() && pending.empty()) break;
        throw std::logic_error("conditional scheduler deadlock");
      }
      commit_copy_fixed(static_cast<std::size_t>(best), best_start);
    }

    // Collect execution records and the makespan.
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      const CopyRun& run = runs[i];
      ExecTrace e;
      e.copy = copies_[i].ref;
      e.start = run.start;
      e.end = run.end;
      e.died = !run.survived;
      e.faults = run.faults;
      for (Time off : run.attempt_offsets) {
        e.attempt_starts.push_back(run.start + off);
      }
      trace.execs.push_back(e);
      if (run.survived) trace.makespan = std::max(trace.makespan, run.end);
    }
    for (const TxTrace& tx : trace.txs) {
      if (!tx.is_condition) trace.makespan = std::max(trace.makespan, tx.finish);
    }
    std::sort(trace.reveals.begin(), trace.reveals.end(),
              [](const Reveal& a, const Reveal& b) { return a.at < b.at; });
    return trace;
  }

  /// Registers, in deterministic copy / fault-index order, every condition
  /// id the given scenario reveals (the same sequence a lazy registration
  /// inside simulate() would produce).
  void register_scenario_conditions(const FaultScenario& scenario) {
    for (const CopyInfo& ci : copies_) {
      const int faults = scenario.faults_on(ci.ref);
      const int r_cond = ci.checkpoints >= 1 ? ci.recoveries : 0;
      const bool survived = faults <= r_cond;
      const int last = survived ? std::min(faults + 1, r_cond) : r_cond + 1;
      for (int j = 1; j <= last; ++j) cond_id(ci, j);
    }
  }

  int cond_id(const CopyInfo& ci, int fault_index) {
    const int id = registry_.id(ci.ref, fault_index, ci.name);
    if (static_cast<std::size_t>(id) >= cond_copy_.size()) {
      cond_copy_.resize(static_cast<std::size_t>(id) + 1);
      cond_index_.resize(static_cast<std::size_t>(id) + 1, 0);
    }
    cond_copy_[static_cast<std::size_t>(id)] = ci.ref;
    cond_index_[static_cast<std::size_t>(id)] = fault_index;
    return id;
  }

  /// Read-only id lookup used during (possibly concurrent) simulation.
  [[nodiscard]] int cond_lookup(const CopyInfo& ci, int fault_index) const {
    const int id = registry_.find(ci.ref, fault_index);
    assert(id >= 0);  // registered by register_scenario_conditions
    return id;
  }

  // --------------------------------------------------------------- tables
  /// One prospective table activation extracted from one scenario trace.
  struct TableRecord {
    int node = -1;  ///< -1 = bus row
    std::string row;
    std::string label;
    Time start = 0;
    Guard guard;
  };

  [[nodiscard]] std::vector<TableRecord> trace_records(
      const ScenarioTrace& tr) const {
    auto guard_at = [&](Time t) {
      Guard g;
      for (const Reveal& r : tr.reveals) {
        if (r.at > t) break;
        g.add(Literal{r.cond_id, r.value});
      }
      return g;
    };
    std::vector<TableRecord> records;
    for (const ExecTrace& e : tr.execs) {
      const CopyInfo& ci = copies_[static_cast<std::size_t>(
          copy_at(e.copy.process.get(), e.copy.copy))];
      for (std::size_t a = 0; a < e.attempt_starts.size(); ++a) {
        const Time t = e.attempt_starts[a];
        records.push_back(TableRecord{ci.node.get(), ci.name,
                                      ci.name + "/" + std::to_string(a + 1),
                                      t, guard_at(t)});
      }
    }
    for (const TxTrace& tx : tr.txs) {
      if (tx.is_condition) {
        records.push_back(TableRecord{-1, registry_.label(tx.cond_id), "",
                                      tx.start, guard_at(tx.ready)});
      } else {
        const Message& m = app_.message(tx.msg);
        records.push_back(TableRecord{
            -1, m.name, copy_row_name(m.name, pa_.plan(m.src), tx.src_copy),
            tx.start, guard_at(tx.ready)});
      }
    }
    return records;
  }

  void build_tables(CondScheduleResult& result) {
    ScheduleTables& tables = result.tables;
    tables.node_rows.assign(static_cast<std::size_t>(arch_.node_count()),
                            TableRows{});
    struct Agg {
      Guard guard;
      bool first = true;
    };
    // key: (node or -1 for bus, row, label, start)
    // lint: cold-path -- guard aggregation when emitting the final tables,
    // once per synthesized schedule; ordered keys double as the
    // deterministic row order of the exported tables
    std::map<std::tuple<int, std::string, std::string, Time>, Agg> agg;

    auto intersect = [](const Guard& a, const Guard& b) {
      Guard g;
      for (const Literal& lit : a.literals()) {
        if (b.contains(lit)) g.add(lit);
      }
      return g;
    };

    // Per-scenario record extraction is independent (pure reads of the
    // traces); the guard-intersecting fold below stays serial in scenario
    // order.
    std::vector<std::vector<TableRecord>> per_trace(result.traces.size());
    parallel_for(*pool_, result.traces.size(), threads_, [&](std::size_t i) {
      if (opts_.cancel && opts_.cancel->poll()) return;
      per_trace[i] = trace_records(result.traces[i]);
    });
    throw_if_cancelled();

    for (const std::vector<TableRecord>& records : per_trace) {
      for (const TableRecord& r : records) {
        auto key = std::make_tuple(r.node, r.row, r.label, r.start);
        auto [it, inserted] = agg.emplace(key, Agg{r.guard, false});
        if (!inserted) it->second.guard = intersect(it->second.guard, r.guard);
      }
    }

    for (auto& [key, a] : agg) {
      const auto& [node, row, label, start] = key;
      TableEntry entry{a.guard, start, label};
      if (node < 0) {
        tables.bus_rows[row].push_back(entry);
      } else {
        tables.node_rows[static_cast<std::size_t>(node)][row].push_back(entry);
      }
    }
    auto sort_rows = [](TableRows& rows) {
      for (auto& [name, entries] : rows) {
        std::sort(entries.begin(), entries.end(),
                  [](const TableEntry& x, const TableEntry& y) {
                    return x.start < y.start;
                  });
      }
    };
    for (TableRows& rows : tables.node_rows) sort_rows(rows);
    sort_rows(tables.bus_rows);
    tables.conds = registry_;
  }

  /// Joins the scenario workers' chunk-granular polls: any observed
  /// cancellation abandons the whole generation (partial tables are wrong,
  /// not partial results).
  void throw_if_cancelled() const {
    if (opts_.cancel && opts_.cancel->poll()) {
      throw CancelledError("conditional scheduling cancelled");
    }
  }

  const Application& app_;
  const Architecture& arch_;
  const PolicyAssignment& pa_;
  const FaultModel& fm_;
  const CondScheduleOptions& opts_;
  int threads_ = 1;
  ThreadPool* pool_ = nullptr;

  /// O(1) (process, copy) -> global copy index (prefix offsets).
  [[nodiscard]] int copy_at(std::int32_t pid, int copy) const {
    return first_copy_[static_cast<std::size_t>(pid)] + copy;
  }

  std::vector<CopyInfo> copies_;
  std::vector<int> first_copy_;
  std::vector<Time> copy_pins_;
  std::vector<Time> msg_pins_;
  std::vector<MessageId> frozen_msgs_;  ///< is_frozen_msg ids, ascending
  CondRegistry registry_;
  std::vector<CopyRef> cond_copy_;
  std::vector<int> cond_index_;
};

}  // namespace

CondScheduleResult conditional_schedule(const Application& app,
                                        const Architecture& arch,
                                        const PolicyAssignment& assignment,
                                        const FaultModel& model,
                                        const CondScheduleOptions& options) {
  assignment.validate(app, model);
  CondSim sim(app, arch, assignment, model, options);
  return sim.run();
}

}  // namespace ftes
