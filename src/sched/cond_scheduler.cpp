#include "sched/cond_scheduler.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "sched/list_scheduler.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace ftes {

namespace {

/// Frozen-start fixpoint iteration cap.
constexpr int kMaxFixpointIterations = 64;

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
    for (int iter = 0; iter < kMaxFixpointIterations; ++iter) {
      result.traces.assign(scenarios.size(), ScenarioTrace{});
      bool moved = false;
      parallel_for(*pool_, scenarios.size(), threads_, [&](std::size_t i) {
        // Chunk-granular cancellation point: a deadline fires within one
        // scenario simulation; the partial traces are discarded below.
        if (opts_.cancel && opts_.cancel->poll()) return;
        result.traces[i] = simulate(scenarios[i]);
      });
      throw_if_cancelled();
      // Raise pins to the observed maxima.  Execution records are in copy
      // order.
      for (const ScenarioTrace& tr : result.traces) {
        for (const int ci : frozen_copies_) {
          const Time start = tr.execs[static_cast<std::size_t>(ci)].start;
          Time& pin = copy_pins_[static_cast<std::size_t>(ci)];
          if (start > pin) {
            pin = start;
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
      if (iter + 1 == kMaxFixpointIterations) {
        FTES_LOG(kWarn) << "frozen-start fixpoint did not converge";
      }
    }

    result.scenario_count = static_cast<int>(result.traces.size());
    for (const ScenarioTrace& tr : result.traces) {
      result.wcsl = std::max(result.wcsl, tr.makespan);
    }
    for (const int ci : frozen_copies_) {
      result.frozen_starts[copies_[static_cast<std::size_t>(ci)].name] =
          copy_pins_[static_cast<std::size_t>(ci)];
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
    // offsets: the simulate() inner loops and the table fold hit this
    // lookup constantly, so no std::map on that path.
    first_copy_ = copy_offsets(app_, pa_);
    copies_ = table_copies(app_, pa_);
    for (std::size_t ci = 0; ci < copies_.size(); ++ci) {
      if (opts_.respect_transparency &&
          app_.process(copies_[ci].ref.process).frozen) {
        frozen_copies_.push_back(static_cast<int>(ci));
      }
    }
    copy_pins_.assign(copies_.size(), 0);
    msg_pins_.assign(static_cast<std::size_t>(app_.message_count()), 0);
    // A message needs a data transmission when some producer copy and some
    // consumer copy sit on different nodes.  Frozen messages always take
    // the bus, as one sync transmission.
    needs_bus_.assign(static_cast<std::size_t>(app_.message_count()), false);
    for (int mi = 0; mi < app_.message_count(); ++mi) {
      const Message& m = app_.message(MessageId{mi});
      if (is_frozen_msg(MessageId{mi})) frozen_msgs_.push_back(MessageId{mi});
      for (const CopyPlan& s : pa_.plan(m.src).copies) {
        for (const CopyPlan& d : pa_.plan(m.dst).copies) {
          if (s.node != d.node) needs_bus_[static_cast<std::size_t>(mi)] = true;
        }
      }
    }

    // Priorities: the list scheduler's partial critical path ranks (same
    // copy indexing).
    rank_ = partial_critical_path_ranks(app_, arch_, pa_);
  }

  [[nodiscard]] bool is_frozen_msg(MessageId m) const {
    return opts_.respect_transparency &&
           app_.message(m).frozen;
  }

  // ------------------------------------------------------------- scenario
  struct CopyRun {
    bool committed = false;
    bool survived = true;
    int faults = 0;
    Time duration = 0;  ///< start -> end (completion or death)
    Time start = 0;
    Time end = 0;
    int unresolved = 0;  ///< (input message, producer copy) pairs pending
    Time data_ready = 0;
  };

  ScenarioTrace simulate(const FaultScenario& scenario) const {
    ScenarioTrace trace;
    trace.scenario = scenario;

    std::vector<CopyRun> runs(copies_.size());
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      const TableCopy& c = copies_[i];
      CopyRun& run = runs[i];
      run.faults = scenario.faults_on(c.ref);
      run.survived = c.law.survives(run.faults);
      run.duration = c.law.run_time(run.faults);
      // One dependency per (input message, producer copy); a frozen
      // message's sync transmission stands for all of its producer copies.
      for (MessageId mid : app_.inputs(c.ref.process)) {
        run.unresolved += is_frozen_msg(mid)
                              ? 1
                              : pa_.plan(app_.message(mid).src).copy_count();
      }
    }
    // Copies of each process not yet committed: the last commit sends the
    // process's frozen messages.
    std::vector<int> uncommitted(
        static_cast<std::size_t>(app_.process_count()));
    for (std::size_t p = 0; p < uncommitted.size(); ++p) {
      uncommitted[p] = first_copy_[p + 1] - first_copy_[p];
    }

    // Each dependency resolves at exactly one site: a co-located consumer at
    // the producer's end; a remote consumer at the end of the data
    // transmission (survivor) or of the death broadcast (dead copy), or at
    // the producer's end under idealized signalling; every consumer of a
    // frozen message at the end of its sync transmission.
    auto resolve = [&](std::size_t dst, Time at) {
      CopyRun& run = runs[dst];
      run.data_ready = std::max(run.data_ready, at);
      --run.unresolved;
      assert(run.unresolved >= 0);
    };
    // Resolves at `at` every consumer copy of `mid` whose node passes `on`.
    auto resolve_consumers = [&](MessageId mid, Time at, auto on) {
      const auto dst =
          static_cast<std::size_t>(app_.message(mid).dst.get());
      for (int d = first_copy_[dst]; d < first_copy_[dst + 1]; ++d) {
        const auto di = static_cast<std::size_t>(d);
        if (on(copies_[di].node)) resolve(di, at);
      }
    };
    // Transmissions in enqueue order, which is also their tie-break order.
    std::vector<TxTrace> pending;

    std::vector<Time> node_free(static_cast<std::size_t>(arch_.node_count()),
                                0);
    Time bus_free = 0;
    std::size_t committed = 0;

    auto send_sync = [&](MessageId mid) {
      const std::int32_t src = app_.message(mid).src.get();
      Time earliest = kTimeInfinity;
      for (int sc = first_copy_[static_cast<std::size_t>(src)];
           sc < first_copy_[static_cast<std::size_t>(src) + 1]; ++sc) {
        const CopyRun& run = runs[static_cast<std::size_t>(sc)];
        if (run.survived) earliest = std::min(earliest, run.end);
      }
      if (earliest == kTimeInfinity) {
        throw std::logic_error(
            "all producer copies of a frozen message died (inadmissible "
            "scenario reached a frozen sync)");
      }
      TxTrace tx;
      tx.msg = mid;
      tx.src_copy = -1;
      tx.sender = copies_[static_cast<std::size_t>(copy_at(src, 0))].node;
      tx.ready =
          std::max(earliest, msg_pins_[static_cast<std::size_t>(mid.get())]);
      pending.push_back(tx);
    };

    auto commit_copy = [&](std::size_t i, Time start) {
      const TableCopy& c = copies_[i];
      CopyRun& run = runs[i];
      run.committed = true;
      run.start = start;
      run.end = start + run.duration;
      node_free[static_cast<std::size_t>(c.node.get())] = run.end;
      ++committed;

      for (int j = 1; j <= c.law.last_reveal(run.faults); ++j) {
        const bool value = j <= run.faults;
        const Time at = value ? start + c.law.occurrence(j) : run.end;
        const int id = cond_lookup(c, j);
        trace.reveals.push_back(Reveal{id, value, at});
        if (!opts_.schedule_condition_broadcasts) continue;
        TxTrace tx;
        tx.is_condition = true;
        tx.cond_id = id;
        tx.value = value;
        tx.sender = c.node;
        tx.ready = at;
        pending.push_back(tx);
      }

      // Under idealized signalling remote consumers learn a death at once.
      const bool tell_all =
          !run.survived && !opts_.schedule_condition_broadcasts;
      for (MessageId mid : app_.outputs(c.ref.process)) {
        if (is_frozen_msg(mid)) continue;
        resolve_consumers(mid, run.end, [&](NodeId node) {
          return tell_all || node == c.node;
        });
        if (run.survived && needs_bus_[static_cast<std::size_t>(mid.get())]) {
          TxTrace tx;
          tx.msg = mid;
          tx.src_copy = c.ref.copy;
          tx.sender = c.node;
          tx.ready = run.end;
          pending.push_back(tx);
        }
      }
      if (--uncommitted[static_cast<std::size_t>(c.ref.process.get())] > 0) {
        return;
      }
      for (MessageId mid : app_.outputs(c.ref.process)) {
        if (is_frozen_msg(mid)) send_sync(mid);
      }
    };

    // The death broadcast of a dead copy (its last condition) tells the
    // remote consumers of its messages.
    auto on_condition_committed = [&](const TxTrace& tx) {
      const CopyRef src = registry_.copy_of(tx.cond_id);
      const std::size_t ci = static_cast<std::size_t>(
          copy_at(src.process.get(), src.copy));
      const TableCopy& c = copies_[ci];
      const int faults = runs[ci].faults;
      if (c.law.survives(faults) ||
          registry_.fault_index_of(tx.cond_id) != c.law.last_reveal(faults)) {
        return;
      }
      for (MessageId mid : app_.outputs(src.process)) {
        if (is_frozen_msg(mid)) continue;
        resolve_consumers(mid, tx.finish,
                          [&](NodeId node) { return node != c.node; });
      }
    };

    // ---- main event loop -------------------------------------------------
    while (committed < copies_.size() || !pending.empty()) {
      // Earliest startable copy.  Only frozen copies have a nonzero pin.
      Time best_start = kTimeInfinity;
      int best = -1;
      for (std::size_t i = 0; i < copies_.size(); ++i) {
        const CopyRun& run = runs[i];
        if (run.committed || run.unresolved > 0) continue;
        const TableCopy& c = copies_[i];
        const Time start = std::max(
            {run.data_ready, c.release,
             node_free[static_cast<std::size_t>(c.node.get())],
             copy_pins_[i]});
        if (start < best_start ||
            (start == best_start && best >= 0 &&
             rank_[static_cast<std::size_t>(best)] < rank_[i])) {
          best_start = start;
          best = static_cast<int>(i);
        }
      }

      // Earliest pending transmission, the first enqueued on ties.
      std::size_t tx_pick = pending.size();
      for (std::size_t t = 0; t < pending.size(); ++t) {
        if (tx_pick == pending.size() ||
            pending[t].ready < pending[tx_pick].ready) {
          tx_pick = t;
        }
      }

      if (tx_pick < pending.size() &&
          (best < 0 || pending[tx_pick].ready <= best_start)) {
        TxTrace tx = pending[tx_pick];
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(tx_pick));
        const std::int64_t size =
            tx.is_condition ? 1 : app_.message(tx.msg).size;
        const Time ready = std::max(tx.ready, bus_free);
        tx.start = arch_.bus().next_slot_start(tx.sender, ready);
        tx.finish = arch_.bus().transmission_finish(tx.sender, ready, size);
        bus_free = tx.finish;
        if (tx.is_condition) {
          on_condition_committed(tx);
        } else if (tx.src_copy < 0) {
          resolve_consumers(tx.msg, tx.finish, [](NodeId) { return true; });
        } else {
          resolve_consumers(tx.msg, tx.finish,
                            [&](NodeId node) { return node != tx.sender; });
        }
        trace.txs.push_back(tx);
        continue;
      }

      if (best < 0) throw std::logic_error("conditional scheduler deadlock");
      commit_copy(static_cast<std::size_t>(best), best_start);
    }

    // Collect execution records, in copy order, and the makespan.
    for (std::size_t i = 0; i < copies_.size(); ++i) {
      const TableCopy& c = copies_[i];
      const CopyRun& run = runs[i];
      ExecTrace e;
      e.copy = c.ref;
      e.start = run.start;
      e.end = run.end;
      e.died = !run.survived;
      e.faults = run.faults;
      e.attempt_starts.push_back(run.start);
      for (int a = 1; a <= std::min(run.faults, c.law.budget()); ++a) {
        e.attempt_starts.push_back(run.start + c.law.recovery_start(a));
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
    for (const TableCopy& c : copies_) {
      const int last = c.law.last_reveal(scenario.faults_on(c.ref));
      for (int j = 1; j <= last; ++j) registry_.id(c.ref, j, c.name);
    }
  }

  /// Read-only id lookup used during (possibly concurrent) simulation.
  [[nodiscard]] int cond_lookup(const TableCopy& c, int fault_index) const {
    const int id = registry_.find(c.ref, fault_index);
    assert(id >= 0);  // registered by register_scenario_conditions
    return id;
  }

  // --------------------------------------------------------------- tables
  /// The integer identity of a table row's activations: a copy's attempt,
  /// a condition broadcast, or a message sent by one source copy.
  struct RowKey {
    int node = -1;  ///< -1 = bus row
    int copy = -1;  ///< global copy index of an attempt row; -1 otherwise
    int index = 0;  ///< attempt, condition id, or source copy (-1 = sync)
    MessageId msg;  ///< message rows only
  };

  /// Row and label strings of `key`, as the tables print them.
  [[nodiscard]] std::pair<std::string, std::string> render(
      const RowKey& key) const {
    if (key.copy >= 0) {
      const std::string& name =
          copies_[static_cast<std::size_t>(key.copy)].name;
      return {name, attempt_label(name, key.index)};
    }
    if (!key.msg.valid()) return {registry_.label(key.index), ""};
    const Message& m = app_.message(key.msg);
    return {m.name, copy_row_name(m.name, pa_.plan(m.src), key.index)};
  }

  /// Every condition value `tr` revealed by `t`, sorted once.
  [[nodiscard]] static Guard guard_at(const ScenarioTrace& tr, Time t) {
    std::vector<Literal> lits;
    for (const Reveal& r : tr.reveals) {
      if (r.at > t) break;
      lits.push_back(Literal{r.cond_id, r.value});
    }
    return Guard::of(std::move(lits));
  }

  // A column's guard is the intersection, over every scenario that fires
  // the same activation (row, label, start), of the condition values that
  // scenario has revealed when the activation's guard is read.  The fold
  // runs scenario by scenario: an activation's first record builds its
  // guard from the scenario's reveal prefix, and each later record drops
  // the literals its own scenario had not revealed by then.
  void build_tables(CondScheduleResult& result) {
    ScheduleTables& tables = result.tables;
    tables.node_rows.assign(static_cast<std::size_t>(arch_.node_count()),
                            TableRows{});

    // Row ids: every copy's attempts, then the condition ids, then each
    // message's source copies (-1 first).
    std::vector<RowKey> keys;
    std::vector<int> attempt_row(copies_.size());
    for (std::size_t ci = 0; ci < copies_.size(); ++ci) {
      const TableCopy& c = copies_[ci];
      attempt_row[ci] = static_cast<int>(keys.size());
      for (int a = 0; a <= c.law.budget(); ++a) {
        keys.push_back(RowKey{c.node.get(), static_cast<int>(ci), a, {}});
      }
    }
    const int cond_row = static_cast<int>(keys.size());
    for (int id = 0; id < registry_.size(); ++id) {
      keys.push_back(RowKey{-1, -1, id, {}});
    }
    std::vector<int> sync_row(static_cast<std::size_t>(app_.message_count()));
    for (int mi = 0; mi < app_.message_count(); ++mi) {
      const MessageId mid{mi};
      sync_row[static_cast<std::size_t>(mi)] = static_cast<int>(keys.size());
      const int copies = pa_.plan(app_.message(mid).src).copy_count();
      for (int j = -1; j < copies; ++j) keys.push_back(RowKey{-1, -1, j, mid});
    }

    // Per row id: (start, index into `guards`), sorted by start.
    std::vector<std::vector<std::pair<Time, int>>> by_start(keys.size());
    std::vector<Guard> guards;
    for (const ScenarioTrace& tr : result.traces) {
      throw_if_cancelled();
      const RevealIndex revealed(tr.reveals);
      auto fold = [&](int row, Time start, Time known_at) {
        auto& list = by_start[static_cast<std::size_t>(row)];
        const auto at = std::lower_bound(
            list.begin(), list.end(), start,
            [](const std::pair<Time, int>& e, Time t) { return e.first < t; });
        if (at != list.end() && at->first == start) {
          guards[static_cast<std::size_t>(at->second)].retain(
              [&](Literal lit) { return revealed.known(lit, known_at); });
          return;
        }
        list.insert(at, {start, static_cast<int>(guards.size())});
        guards.push_back(guard_at(tr, known_at));
      };
      for (const ExecTrace& e : tr.execs) {
        const int first = attempt_row[static_cast<std::size_t>(
            copy_at(e.copy.process.get(), e.copy.copy))];
        for (std::size_t a = 0; a < e.attempt_starts.size(); ++a) {
          fold(first + static_cast<int>(a), e.attempt_starts[a],
               e.attempt_starts[a]);
        }
      }
      for (const TxTrace& tx : tr.txs) {
        const int row =
            tx.is_condition
                ? cond_row + tx.cond_id
                : sync_row[static_cast<std::size_t>(tx.msg.get())] +
                      tx.src_copy + 1;
        fold(row, tx.start, tx.ready);
      }
    }

    // Emission in (node, row, label, start) order: the per-row sort by
    // start below is not stable, so this order decides how entries with
    // equal starts print.  Row ids that render alike (a frozen sync and
    // copy 0 of a single-copy plan both print "m1", and so do reused
    // names) form one group, and their entries at one start merge by
    // intersection.
    std::vector<std::pair<std::string, std::string>> text(keys.size());
    std::vector<int> used;
    for (std::size_t row = 0; row < keys.size(); ++row) {
      if (by_start[row].empty()) continue;
      text[row] = render(keys[row]);
      used.push_back(static_cast<int>(row));
    }
    auto rendered = [&](int row) {
      const auto& [name, label] = text[static_cast<std::size_t>(row)];
      return std::tie(keys[static_cast<std::size_t>(row)].node, name, label);
    };
    std::sort(used.begin(), used.end(),
              [&](int a, int b) { return rendered(a) < rendered(b); });
    for (std::size_t u = 0; u < used.size();) {
      const auto row = static_cast<std::size_t>(used[u]);
      std::vector<std::pair<Time, int>> starts = std::move(by_start[row]);
      std::size_t v = u + 1;
      for (; v < used.size() && rendered(used[v]) == rendered(used[u]); ++v) {
        const auto& more = by_start[static_cast<std::size_t>(used[v])];
        starts.insert(starts.end(), more.begin(), more.end());
      }
      if (v > u + 1) std::sort(starts.begin(), starts.end());
      const int node = keys[row].node;
      TableRows& rows = node < 0
                            ? tables.bus_rows
                            : tables.node_rows[static_cast<std::size_t>(node)];
      std::vector<TableEntry>& out = rows[text[row].first];
      for (std::size_t i = 0; i < starts.size();) {
        Guard& guard = guards[static_cast<std::size_t>(starts[i].second)];
        std::size_t j = i + 1;
        for (; j < starts.size() && starts[j].first == starts[i].first; ++j) {
          const Guard& other =
              guards[static_cast<std::size_t>(starts[j].second)];
          guard.retain([&](Literal lit) { return other.contains(lit); });
        }
        out.push_back(TableEntry{std::move(guard), starts[i].first,
                                 text[row].second});
        i = j;
      }
      u = v;
    }
    auto sort_rows = [](TableRows& rows) {
      for (auto& [name, row_entries] : rows) {
        std::sort(row_entries.begin(), row_entries.end(),
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

  std::vector<TableCopy> copies_;
  std::vector<int> first_copy_;
  std::vector<Time> rank_;            ///< list-scheduling priority per copy
  std::vector<int> frozen_copies_;    ///< frozen copy indices, ascending
  std::vector<Time> copy_pins_;       ///< 0 for copies that are not frozen
  std::vector<Time> msg_pins_;
  std::vector<MessageId> frozen_msgs_;  ///< is_frozen_msg ids, ascending
  std::vector<bool> needs_bus_;       ///< per message; see build_static_info
  CondRegistry registry_;  ///< filled before, read-only while simulating
};

}  // namespace

RevealIndex::RevealIndex(const std::vector<Reveal>& reveals) {
  int ids = 0;
  for (const Reveal& r : reveals) ids = std::max(ids, r.cond_id + 1);
  for (std::vector<Time>& at : at_) {
    at.assign(static_cast<std::size_t>(ids), kTimeInfinity);
  }
  for (const Reveal& r : reveals) {
    if (r.cond_id < 0) continue;
    Time& at = at_[r.value ? 1 : 0][static_cast<std::size_t>(r.cond_id)];
    at = std::min(at, r.at);
  }
}

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
