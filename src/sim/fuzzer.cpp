#include "sim/fuzzer.h"

#include <algorithm>
#include <istream>
#include <sstream>
#include <stdexcept>

#include "fault/recovery.h"
#include "sim/executor.h"
#include "sim/fault_injector.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftes {

const char* to_string(FuzzKind kind) {
  switch (kind) {
    case FuzzKind::kDeadlineMiss: return "deadline-miss";
    case FuzzKind::kTableGap: return "table-gap";
    case FuzzKind::kGuardNotEntailed: return "guard-not-entailed";
    case FuzzKind::kNotReady: return "not-ready";
    case FuzzKind::kOverlap: return "overlap";
    case FuzzKind::kFrozenDivergence: return "frozen-divergence";
    case FuzzKind::kSlotMisaligned: return "slot-misaligned";
  }
  return "unknown";
}

std::optional<FuzzKind> fuzz_kind_from_string(const std::string& name) {
  for (FuzzKind k :
       {FuzzKind::kDeadlineMiss, FuzzKind::kTableGap,
        FuzzKind::kGuardNotEntailed, FuzzKind::kNotReady, FuzzKind::kOverlap,
        FuzzKind::kFrozenDivergence, FuzzKind::kSlotMisaligned}) {
    if (name == to_string(k)) return k;
  }
  return std::nullopt;
}

namespace {

constexpr std::optional<Time> kNoPin;

[[nodiscard]] std::vector<int> scenario_key(const FaultScenario& s) {
  std::vector<int> key;
  for (const auto& [ref, count] : s.hits()) {
    if (count <= 0) continue;
    key.push_back(ref.process.get());
    key.push_back(ref.copy);
    key.push_back(count);
  }
  return key;
}

[[nodiscard]] int clamp_scale(int s) {
  return std::min(kFuzzScaleOne, std::max(1, s));
}

/// Scaled-down span: never below one tick (a zero-length execution or an
/// instantaneous fault would be inadmissible).
[[nodiscard]] Time scale_span(Time span, int scale) {
  if (span <= 0) return span;
  return std::max<Time>(1, span * static_cast<Time>(clamp_scale(scale)) /
                               kFuzzScaleOne);
}

}  // namespace

struct ScheduleFuzzer::Replayed {
  ScenarioTrace trace;  ///< logical starts (for execute_scenario)
  std::vector<FuzzViolation> violations;
};

ScheduleFuzzer::ScheduleFuzzer(const Application& app,
                               const Architecture& arch,
                               const PolicyAssignment& assignment,
                               const FaultModel& model,
                               const CondScheduleResult& schedule)
    : app_(app), arch_(arch), pa_(assignment), model_(model),
      schedule_(schedule) {
  if (schedule_.traces.empty()) {
    throw std::invalid_argument(
        "fuzzer needs a schedule with per-scenario traces");
  }

  // The session tables: every row, label, condition id and pin a replay
  // reads, resolved once.
  const ScheduleTables& tables = schedule_.tables;
  auto row_of = [](const TableRows& rows, const std::string& name) {
    const auto it = rows.find(name);
    return it != rows.end() ? &it->second : nullptr;
  };
  auto pin_of = [&](const std::string& name) -> std::optional<Time> {
    const auto it = schedule_.frozen_starts.find(name);
    return it != schedule_.frozen_starts.end() ? it->second : kNoPin;
  };
  first_copy_ = copy_offsets(app_, pa_);
  copies_ = table_copies(app_, pa_);
  for (const TableCopy& c : copies_) {
    CopyRow& row = copy_rows_.emplace_back();
    row.entries = row_of(
        tables.node_rows.at(static_cast<std::size_t>(c.node.get())), c.name);
    row.pin = pin_of(c.name);
    for (int a = 0; a <= c.law.budget(); ++a) {
      row.labels.push_back(attempt_label(c.name, a));
      row.conds.push_back(tables.conds.find(c.ref, a + 1));
    }
  }
  for (int mi = 0; mi < app_.message_count(); ++mi) {
    const Message& m = app_.message(MessageId{mi});
    const ProcessPlan& plan = pa_.plan(m.src);
    sync_tx_.push_back(tx_rows_.size());
    for (int j = -1; j < plan.copy_count(); ++j) {
      const std::string label = copy_row_name(m.name, plan, j);
      tx_rows_.push_back(
          {row_of(tables.bus_rows, m.name), label, label, pin_of(m.name)});
    }
  }
  cond_tx_ = tx_rows_.size();
  for (int id = 0; id < tables.conds.size(); ++id) {
    const std::string& name = tables.conds.label(id);
    tx_rows_.push_back({row_of(tables.bus_rows, name), "", name, kNoPin});
  }

  for (std::size_t t = 0; t < schedule_.traces.size(); ++t) {
    trace_index_.emplace(scenario_key(schedule_.traces[t].scenario), t);
  }
}

const ScenarioTrace& ScheduleFuzzer::trace_for(
    const FaultScenario& scenario) const {
  const auto it = trace_index_.find(scenario_key(scenario));
  if (it == trace_index_.end()) {
    throw std::invalid_argument("scenario " + scenario.to_string(app_) +
                                " is not covered by the schedule");
  }
  return schedule_.traces[it->second];
}

ScheduleFuzzer::Replayed ScheduleFuzzer::replay_trace(
    const FuzzPerturbation& p) const {
  const ScenarioTrace& nom = trace_for(p.scenario);
  const ScheduleTables& tables = schedule_.tables;
  Replayed out;
  out.trace.scenario = p.scenario;
  std::vector<FuzzViolation>& bad = out.violations;
  std::string scen;  // rendered with the first violation
  auto report = [&](FuzzKind kind, const std::string& what) {
    if (scen.empty()) scen = " in scenario " + p.scenario.to_string(app_);
    bad.push_back({kind, what + scen});
  };

  // Nominal condition values of this scenario by condition id (-1 = not
  // revealed): an entry is outcome-consistent when every guard literal
  // names a condition this scenario reveals, with the revealed value.
  std::vector<int> nominal_value(
      static_cast<std::size_t>(tables.conds.size()), -1);
  for (const Reveal& r : nom.reveals) {
    nominal_value[static_cast<std::size_t>(r.cond_id)] = r.value;
  }
  auto consistent = [&](const Guard& g) {
    return std::all_of(
        g.literals().begin(), g.literals().end(), [&](Literal lit) {
          // A negative id wraps past the end: never revealed.
          const auto id = static_cast<std::size_t>(lit.vertex);
          return id < nominal_value.size() && nominal_value[id] == lit.faulted;
        });
  };

  // The table entry the run-time scheduler fires for one activation.  Fast
  // path: the entry at the nominal start (correct tables replay
  // identically).  Fallback: the earliest outcome-consistent entry of the
  // label (a corrupted table still fires *something*, at the wrong time).
  // Neither: a table gap; the replay continues at the nominal start so one
  // corruption yields one focused violation instead of a cascade.
  auto fired_start = [&](const Row* row, const std::string& label,
                         Time nominal_start, const auto& what) {
    if (row != nullptr) {
      for (const TableEntry& e : *row) {
        if (e.start == nominal_start && e.label == label &&
            consistent(e.guard)) {
          return nominal_start;
        }
      }
      for (const TableEntry& e : *row) {  // sorted by start
        if (e.label == label && consistent(e.guard)) return e.start;
      }
    }
    report(FuzzKind::kTableGap, "no table entry for " + what());
    return nominal_start;
  };

  auto scale_at = [](const std::vector<int>& v, std::size_t i) {
    if (v.empty() || i >= v.size()) return kFuzzScaleOne;
    return clamp_scale(v[i]);
  };

  // ---- pass 1: executions ---------------------------------------------
  // Activation starts come from the tables; completions, fault arrivals
  // and condition reveals move with the perturbation.
  const std::size_t n_copies = copies_.size();
  std::vector<Time> end2(n_copies, 0);
  // The fault index of a dead copy's last reveal, its death condition; 0
  // while the copy survives.
  std::vector<int> death2(n_copies, 0);
  // Replayed reveal time by condition id; 0 for one not revealed.
  std::vector<Time> reveal_at(static_cast<std::size_t>(tables.conds.size()),
                              0);
  out.trace.execs.reserve(nom.execs.size());

  for (const ExecTrace& e : nom.execs) {
    const std::size_t gi = copy_at(e.copy);
    const TableCopy& ci = copies_[gi];
    const CopyRow& row = copy_rows_[gi];
    const CopyRecovery& law = ci.law;
    const int es = scale_at(p.exec_scale, gi);
    const int as = scale_at(p.arrival_scale, gi);

    std::vector<Time> starts;
    starts.reserve(e.attempt_starts.size());
    for (std::size_t a = 0; a < e.attempt_starts.size(); ++a) {
      const std::string& label = row.labels[a];
      starts.push_back(fired_start(row.entries, label, e.attempt_starts[a],
                                   [&] { return "attempt " + label; }));
    }

    // The copy reveals conditions 1..last; the first `struck` of them are
    // faults.  Perturbed fault arrivals: fault j strikes during attempt
    // j-1, at an admissible fraction of its worst-case in-attempt offset.
    const int last = law.last_reveal(e.faults);
    const int struck = std::min(e.faults, last);
    std::vector<Time> occ(static_cast<std::size_t>(struck) + 1, 0);
    for (int j = 1; j <= struck; ++j) {
      const std::size_t a = static_cast<std::size_t>(j - 1);
      const Time rel = law.occurrence(j) - (e.attempt_starts[a] - e.start);
      occ[static_cast<std::size_t>(j)] = starts[a] + scale_span(rel, as);
    }
    // A recovery may only fire after its fault is detected and the
    // checkpoint restored.
    for (int j = 1; j <= struck; ++j) {
      const std::size_t a = static_cast<std::size_t>(j);
      if (a >= starts.size()) break;  // the killing fault has no recovery
      const Time ready =
          occ[static_cast<std::size_t>(j)] + law.params.alpha + law.params.mu;
      if (starts[a] < ready) {
        report(FuzzKind::kNotReady,
               "recovery " + row.labels[a] + " fires at t=" +
                   std::to_string(starts[a]) + " before recovery readiness" +
                   " at t=" + std::to_string(ready));
      }
    }

    Time end = 0;
    if (e.died) {
      end = occ.back() + law.params.alpha;  // detects its killing fault
    } else {
      const Time tail = e.end - e.attempt_starts.back();
      end = starts.back() + scale_span(tail, es);
    }

    for (int j = 1; j <= last; ++j) {
      const bool value = j <= e.faults;
      const Time at = value ? occ[static_cast<std::size_t>(j)] : end;
      const int cond = row.conds[static_cast<std::size_t>(j - 1)];
      if (cond < 0) continue;  // never scheduled; nothing to reveal
      reveal_at[static_cast<std::size_t>(cond)] = at;
      out.trace.reveals.push_back(Reveal{cond, value, at});
    }

    if (row.pin && starts.front() != *row.pin) {
      report(FuzzKind::kFrozenDivergence,
             "frozen process " + ci.name + " starts at t=" +
                 std::to_string(starts.front()) + " instead of its pinned t=" +
                 std::to_string(*row.pin));
    }

    end2[gi] = end;
    death2[gi] = e.died ? last : 0;
    out.trace.execs.push_back(ExecTrace{e.copy, starts.front(), end, e.died,
                                        e.faults, std::move(starts)});
  }

  // ---- pass 2: bus transmissions --------------------------------------
  // A phase offset phi shifts every TDMA slot [s, s+len) to [s+phi', ...):
  // the fired entry keeps its logical (table) start, the physical
  // transmission lands in the matching shifted slot.
  const TdmaBus& bus = arch_.bus();
  const Time round = bus.round_length();
  const Time phi =
      round > 0 ? ((p.bus_phase % round) + round) % round : 0;
  const Time base = phi == 0 ? 0 : phi - round;  // <= 0, keeps args positive

  std::vector<Time> tx_start_phys(nom.txs.size(), 0);
  // Replayed finish by tx row; empty for one the trace does not carry.
  std::vector<std::optional<Time>> finish(tx_rows_.size());
  out.trace.txs.reserve(nom.txs.size());

  for (std::size_t ti = 0; ti < nom.txs.size(); ++ti) {
    const TxTrace& tx = nom.txs[ti];
    const std::size_t at =
        tx.is_condition
            ? cond_tx_ + static_cast<std::size_t>(tx.cond_id)
            : sync_tx_[static_cast<std::size_t>(tx.msg.get())] +
                  static_cast<std::size_t>(tx.src_copy + 1);
    const TxRow& row = tx_rows_[at];
    const Time table_start =
        fired_start(row.entries, row.label, tx.start,
                    [&] { return "bus transmission " + row.name; });
    if (phi == 0 &&
        bus.next_slot_start(tx.sender, table_start) != table_start) {
      report(FuzzKind::kSlotMisaligned,
             "bus entry " + row.name + " at t=" +
                 std::to_string(table_start) +
                 " is not a slot start of its sender");
    }
    const std::int64_t size =
        tx.is_condition ? 1 : app_.message(tx.msg).size;
    const TdmaWindow phys =
        bus.transmission(tx.sender, table_start - base, size);
    const Time phys_start = base + phys.start;
    const Time phys_finish = base + phys.finish;

    // Data / detection readiness of the transmission under perturbation.
    Time ready = 0;
    if (tx.is_condition) {
      ready = reveal_at[static_cast<std::size_t>(tx.cond_id)];
    } else if (tx.src_copy < 0) {
      // Frozen sync: ready once the earliest surviving producer copy
      // completed (and never before the transparency pin).
      const Message& m = app_.message(tx.msg);
      const ProcessPlan& sp = pa_.plan(m.src);
      Time earliest = kTimeInfinity;
      for (int sj = 0; sj < sp.copy_count(); ++sj) {
        const std::size_t gi = copy_at(m.src, sj);
        if (death2[gi] == 0) earliest = std::min(earliest, end2[gi]);
      }
      ready = earliest == kTimeInfinity ? 0 : earliest;
      if (row.pin) ready = std::max(ready, *row.pin);
    } else {
      ready = end2[copy_at(app_.message(tx.msg).src, tx.src_copy)];
    }
    finish[at] = phys_finish;
    if (phys_start < ready) {
      report(FuzzKind::kNotReady,
             "bus transmission " + row.name + " fires at t=" +
                 std::to_string(phys_start) + " before its data is ready" +
                 " at t=" + std::to_string(ready));
    }

    if (!tx.is_condition && app_.message(tx.msg).frozen && row.pin &&
        table_start != *row.pin) {
      report(FuzzKind::kFrozenDivergence,
             "frozen message " + app_.message(tx.msg).name +
                 " transmitted at t=" + std::to_string(table_start) +
                 " instead of its pinned t=" + std::to_string(*row.pin));
    }

    tx_start_phys[ti] = phys_start;
    TxTrace rtx = tx;
    rtx.ready = ready;
    rtx.start = table_start;  // logical activation (execute_scenario checks)
    rtx.finish = phys_finish;
    out.trace.txs.push_back(rtx);
  }

  // ---- pass 3: message resolution & first-attempt readiness -----------
  // Local consumers at the producer's end, remote data at the
  // transmission's finish, a dead copy's remote consumers at its death
  // broadcast's finish, and frozen syncs resolve every consumer.  A remote
  // consumer whose transmission or broadcast the trace does not carry (as
  // under idealized signalling) resolves at the producer's end.
  std::vector<Time> data_ready(n_copies, 0);
  auto raise = [&](std::size_t dst, Time at) {
    data_ready[dst] = std::max(data_ready[dst], at);
  };
  for (int mi = 0; mi < app_.message_count(); ++mi) {
    const Message& m = app_.message(MessageId{mi});
    const std::size_t sync = sync_tx_[static_cast<std::size_t>(mi)];
    const ProcessPlan& sp = pa_.plan(m.src);
    const ProcessPlan& dp = pa_.plan(m.dst);
    if (finish[sync]) {
      for (int dj = 0; dj < dp.copy_count(); ++dj) {
        raise(copy_at(m.dst, dj), *finish[sync]);
      }
      continue;
    }
    for (int sj = 0; sj < sp.copy_count(); ++sj) {
      const std::size_t gi = copy_at(m.src, sj);
      for (int dj = 0; dj < dp.copy_count(); ++dj) {
        const std::size_t gd = copy_at(m.dst, dj);
        if (copies_[gd].node == copies_[gi].node) {
          raise(gd, end2[gi]);
          continue;
        }
        std::optional<Time> heard;
        if (death2[gi] == 0) {
          heard = finish[sync + static_cast<std::size_t>(sj + 1)];
        } else if (const int cond = copy_rows_[gi].conds[static_cast<
                       std::size_t>(death2[gi] - 1)];
                   cond >= 0) {
          heard = finish[cond_tx_ + static_cast<std::size_t>(cond)];
        }
        raise(gd, heard.value_or(end2[gi]));
      }
    }
  }
  for (const ExecTrace& e : out.trace.execs) {
    const std::size_t gi = copy_at(e.copy);
    const Time needed = std::max(data_ready[gi], copies_[gi].release);
    if (e.start < needed) {
      report(FuzzKind::kNotReady,
             copies_[gi].name + " starts at t=" + std::to_string(e.start) +
                 " before its inputs are ready at t=" +
                 std::to_string(needed));
    }
  }

  // ---- pass 4: resource overlap ---------------------------------------
  // An interval's `who` is a copy index on a node and a transmission index
  // on the bus (node -1); `name` names it.
  struct Interval {
    Time start;
    Time end;
    std::size_t who;
  };
  auto check_overlaps = [&](std::vector<Interval>& iv, int node,
                            const auto& name) {
    std::sort(iv.begin(), iv.end(), [&](const Interval& a, const Interval& b) {
      if (a.start != b.start) return a.start < b.start;
      return name(a.who) < name(b.who);
    });
    Time busy_until = 0;
    const Interval* owner = nullptr;
    for (const Interval& x : iv) {
      if (owner != nullptr && x.start < busy_until) {
        report(FuzzKind::kOverlap,
               node < 0 ? "bus " + name(owner->who) + " and bus " +
                              name(x.who) + " overlap"
                        : name(owner->who) + " and " + name(x.who) +
                              " overlap on node " +
                              arch_.node(NodeId{node}).name);
      }
      if (x.end > busy_until || owner == nullptr) {
        busy_until = std::max(busy_until, x.end);
        owner = &x;
      }
    }
  };
  std::vector<std::vector<Interval>> per_node(
      static_cast<std::size_t>(arch_.node_count()));
  for (const ExecTrace& e : out.trace.execs) {
    const std::size_t gi = copy_at(e.copy);
    if (e.end <= e.start) continue;
    per_node[static_cast<std::size_t>(copies_[gi].node.get())].push_back(
        Interval{e.start, e.end, gi});
  }
  auto copy_name = [&](std::size_t gi) -> const std::string& {
    return copies_[gi].name;
  };
  for (int ni = 0; ni < arch_.node_count(); ++ni) {
    check_overlaps(per_node[static_cast<std::size_t>(ni)], ni, copy_name);
  }
  std::vector<Interval> bus_iv;
  for (std::size_t ti = 0; ti < nom.txs.size(); ++ti) {
    const Time end = out.trace.txs[ti].finish;
    if (end <= tx_start_phys[ti]) continue;
    bus_iv.push_back(Interval{tx_start_phys[ti], end, ti});
  }
  check_overlaps(bus_iv, -1, [&](std::size_t ti) -> const std::string& {
    const TxTrace& tx = nom.txs[ti];
    return tx.is_condition ? tables.conds.label(tx.cond_id)
                           : app_.message(tx.msg).name;
  });

  // ---- the paper's own checks over the replayed trace ------------------
  Time makespan = 0;
  for (std::size_t gi = 0; gi < n_copies; ++gi) {
    if (death2[gi] == 0) makespan = std::max(makespan, end2[gi]);
  }
  for (const TxTrace& tx : out.trace.txs) {
    if (!tx.is_condition) makespan = std::max(makespan, tx.finish);
  }
  out.trace.makespan = makespan;
  std::sort(out.trace.reveals.begin(), out.trace.reveals.end(),
            [](const Reveal& a, const Reveal& b) {
              if (a.at != b.at) return a.at < b.at;
              return a.cond_id < b.cond_id;
            });
  const ExecutionReport rep =
      execute_scenario(app_, pa_, schedule_, out.trace);
  for (const std::string& v : rep.violations) {
    const FuzzKind kind = v.find("no entailed table entry") !=
                                  std::string::npos
                              ? FuzzKind::kGuardNotEntailed
                              : FuzzKind::kDeadlineMiss;
    bad.push_back({kind, v});
  }

  std::sort(bad.begin(), bad.end(),
            [](const FuzzViolation& a, const FuzzViolation& b) {
              if (a.kind != b.kind) return a.kind < b.kind;
              return a.message < b.message;
            });
  bad.erase(std::unique(bad.begin(), bad.end()), bad.end());
  return out;
}

std::vector<FuzzViolation> ScheduleFuzzer::replay(
    const FuzzPerturbation& perturbation) const {
  return replay_trace(perturbation).violations;
}

FuzzPerturbation ScheduleFuzzer::random_perturbation(
    std::uint64_t trial_seed) const {
  Rng rng(trial_seed);
  FuzzPerturbation p;
  const int faults = static_cast<int>(rng.uniform_int(0, model_.k));
  p.scenario = random_scenario(app_, pa_, faults, rng);
  p.exec_scale.reserve(copies_.size());
  p.arrival_scale.reserve(copies_.size());
  for (std::size_t i = 0; i < copies_.size(); ++i) {
    p.exec_scale.push_back(
        static_cast<int>(rng.uniform_int(kFuzzMinScale, kFuzzScaleOne)));
    p.arrival_scale.push_back(
        static_cast<int>(rng.uniform_int(kFuzzMinScale, kFuzzScaleOne)));
  }
  return p;
}

FuzzReport ScheduleFuzzer::fuzz(const FuzzOptions& options) const {
  const Stopwatch watch;
  FuzzReport report;
  const std::size_t trials =
      options.trials > 0 ? static_cast<std::size_t>(options.trials) : 0;

  struct Trial {
    bool ran = false;
    bool failed = false;
    Time completion = 0;
    std::vector<FuzzViolation> violations;
    FuzzPerturbation perturbation;  ///< stored only on failure
  };
  std::vector<Trial> slots(trials);

  const int threads = resolve_threads(options.threads);
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  parallel_for(pool, trials, threads, [&](std::size_t i) {
    if (options.cancel && options.cancel->poll()) return;
    const std::uint64_t seed = derive_stream_seed(options.seed, i);
    FuzzPerturbation p = random_perturbation(seed);
    Replayed r = replay_trace(p);
    Trial& t = slots[i];
    t.ran = true;
    t.completion = r.trace.makespan;
    t.violations = std::move(r.violations);
    t.failed = !t.violations.empty();
    if (t.failed) t.perturbation = std::move(p);
  });

  // Serial fold in trial order: the report is bit-identical for every
  // thread count (cancelled runs excepted -- they are timing-dependent).
  for (std::size_t i = 0; i < trials; ++i) {
    Trial& t = slots[i];
    if (!t.ran) continue;
    ++report.trials;
    report.worst_completion = std::max(report.worst_completion, t.completion);
    if (!t.failed) continue;
    ++report.failing_trials;
    if (report.first_failing_trial < 0) {
      report.first_failing_trial = static_cast<long long>(i);
    }
    report.violations += static_cast<long long>(t.violations.size());
    for (const FuzzViolation& v : t.violations) {
      ++report.violations_by_kind[to_string(v.kind)];
    }
    if (static_cast<int>(report.counterexamples.size()) <
        kFuzzMaxCounterexamples) {
      FuzzCounterexample cx;
      cx.trial = static_cast<long long>(i);
      cx.trial_seed = derive_stream_seed(options.seed, i);
      cx.perturbation = options.shrink
                            ? shrink(t.perturbation, &cx.shrink_steps)
                            : t.perturbation;
      cx.violations = options.shrink ? replay(cx.perturbation)
                                     : std::move(t.violations);
      report.counterexamples.push_back(std::move(cx));
    }
  }
  report.seconds = watch.seconds();
  return report;
}

FuzzPerturbation ScheduleFuzzer::shrink(const FuzzPerturbation& failing,
                                        int* steps) const {
  int count = 0;
  FuzzPerturbation cur = failing;
  auto fails = [&](const FuzzPerturbation& q) {
    return !replay_trace(q).violations.empty();
  };
  if (!fails(cur)) {
    if (steps) *steps = 0;
    return cur;
  }

  auto drop_one = [](const FaultScenario& s, CopyRef ref) {
    FaultScenario out;
    for (const auto& [r, c] : s.hits()) {
      const int cc = r == ref ? c - 1 : c;
      if (cc > 0) out.add_fault(r, cc);
    }
    return out;
  };

  bool changed = true;
  while (changed) {
    changed = false;

    // Drop faults one at a time (greedily, as long as the failure holds).
    {
      std::vector<CopyRef> hit;
      for (const auto& [r, c] : cur.scenario.hits()) {
        if (c > 0) hit.push_back(r);
      }
      for (const CopyRef& r : hit) {
        while (cur.scenario.faults_on(r) > 0) {
          FuzzPerturbation q = cur;
          q.scenario = drop_one(cur.scenario, r);
          if (!fails(q)) break;
          cur = std::move(q);
          ++count;
          changed = true;
        }
      }
    }

    // Push jitter scales back toward nominal (kFuzzScaleOne): try nominal
    // outright, else bisect to the largest still-failing value.
    auto relax_scales = [&](std::vector<int>& scales) {
      for (std::size_t i = 0; i < scales.size(); ++i) {
        const int original = clamp_scale(scales[i]);
        scales[i] = original;
        if (original == kFuzzScaleOne) continue;
        int saved = original;
        scales[i] = kFuzzScaleOne;
        if (fails(cur)) {
          // nominal along this dimension still fails: keep it nominal
        } else {
          int lo = original;        // known failing
          int hi = kFuzzScaleOne;   // known passing
          while (lo + 1 < hi) {
            const int mid = lo + (hi - lo) / 2;
            scales[i] = mid;
            if (fails(cur)) {
              lo = mid;
            } else {
              hi = mid;
            }
          }
          scales[i] = lo;
        }
        if (scales[i] != saved) {
          ++count;
          changed = true;
        }
      }
    };
    relax_scales(cur.exec_scale);
    relax_scales(cur.arrival_scale);

    // Bisect the phase offset toward 0.
    if (cur.bus_phase != 0) {
      const Time original = cur.bus_phase;
      cur.bus_phase = 0;
      if (!fails(cur)) {
        Time lo = 0;            // known passing
        Time hi = original;     // known failing
        while (lo + 1 < hi) {
          const Time mid = lo + (hi - lo) / 2;
          cur.bus_phase = mid;
          if (fails(cur)) {
            hi = mid;
          } else {
            lo = mid;
          }
        }
        cur.bus_phase = hi;
      }
      if (cur.bus_phase != original) {
        ++count;
        changed = true;
      }
    }
  }

  // Cosmetic: all-nominal scale vectors collapse to "empty == nominal".
  auto all_nominal = [](const std::vector<int>& v) {
    return std::all_of(v.begin(), v.end(),
                       [](int s) { return s == kFuzzScaleOne; });
  };
  if (all_nominal(cur.exec_scale)) cur.exec_scale.clear();
  if (all_nominal(cur.arrival_scale)) cur.arrival_scale.clear();

  if (steps) *steps = count;
  return cur;
}

// --- fixtures ---------------------------------------------------------------

namespace {

void emit_scales(std::ostringstream& out, const char* directive,
                 const std::vector<int>& scales, const Application& app,
                 const std::vector<int>& first_copy) {
  if (scales.empty()) return;
  for (int pid = 0; pid < app.process_count(); ++pid) {
    const int lo = first_copy[static_cast<std::size_t>(pid)];
    const int hi = first_copy[static_cast<std::size_t>(pid) + 1];
    for (int gi = lo; gi < hi; ++gi) {
      if (gi >= static_cast<int>(scales.size())) break;
      const int s = scales[static_cast<std::size_t>(gi)];
      if (s == kFuzzScaleOne) continue;
      out << directive << " " << app.process(ProcessId{pid}).name << " "
          << gi - lo << " " << s << "\n";
    }
  }
}

}  // namespace

std::string fixture_to_text(const FuzzFixture& fixture,
                            const Application& app,
                            const PolicyAssignment& assignment) {
  const std::vector<int> first_copy = copy_offsets(app, assignment);
  std::ostringstream out;
  out << "# ftes fuzz fixture v1\n";
  if (!fixture.note.empty()) {
    std::string note = fixture.note;
    std::replace(note.begin(), note.end(), '\n', ' ');
    out << "note " << note << "\n";
  }
  if (fixture.perturbation.bus_phase != 0) {
    out << "phase " << fixture.perturbation.bus_phase << "\n";
  }
  for (const auto& [ref, count] : fixture.perturbation.scenario.hits()) {
    if (count <= 0) continue;
    out << "fault " << app.process(ref.process).name << " " << ref.copy
        << " " << count << "\n";
  }
  emit_scales(out, "exec-scale", fixture.perturbation.exec_scale, app,
              first_copy);
  emit_scales(out, "arrival-scale", fixture.perturbation.arrival_scale, app,
              first_copy);
  for (const TableCorruption& c : fixture.corruptions) {
    out << "corrupt ";
    if (c.node < 0) {
      out << "bus";
    } else {
      out << "node " << c.node;
    }
    out << " " << c.row << " " << (c.label.empty() ? "-" : c.label) << " "
        << c.old_start << " ";
    if (c.erase) {
      out << "delete";
    } else {
      out << c.new_start;
    }
    out << "\n";
  }
  if (fixture.expect.empty()) {
    out << "expect none\n";
  } else {
    for (FuzzKind k : fixture.expect) {
      out << "expect " << to_string(k) << "\n";
    }
  }
  return out.str();
}

FuzzFixture parse_fixture(std::istream& in, const Application& app,
                          const PolicyAssignment& assignment) {
  const std::vector<int> first_copy = copy_offsets(app, assignment);
  FuzzFixture f;
  std::string line;
  int lineno = 0;

  auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error("fuzz fixture line " + std::to_string(lineno) +
                             ": " + why);
  };
  auto pid_of = [&](const std::string& name) {
    for (int i = 0; i < app.process_count(); ++i) {
      if (app.process(ProcessId{i}).name == name) return i;
    }
    fail("unknown process '" + name + "'");
    return -1;  // unreachable
  };
  auto parse_time = [&](const std::string& token) {
    std::size_t used = 0;
    long long v = 0;
    try {
      v = std::stoll(token, &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used != token.size()) fail("bad number '" + token + "'");
    return static_cast<Time>(v);
  };
  auto copy_index = [&](std::istringstream& ls, const char* directive,
                        int& pid, int& copy) {
    std::string pname;
    if (!(ls >> pname >> copy)) {
      fail(std::string("expected '") + directive + " <process> <copy> ...'");
    }
    pid = pid_of(pname);
    const int copies = assignment.plan(ProcessId{pid}).copy_count();
    if (copy < 0 || copy >= copies) {
      fail("copy index " + std::to_string(copy) + " out of range for " +
           pname);
    }
  };

  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string cmd;
    if (!(ls >> cmd)) continue;

    if (cmd == "note") {
      std::getline(ls, f.note);
      const std::size_t start = f.note.find_first_not_of(" \t");
      f.note = start == std::string::npos ? "" : f.note.substr(start);
    } else if (cmd == "phase") {
      std::string token;
      if (!(ls >> token)) fail("expected 'phase <ticks>'");
      f.perturbation.bus_phase = parse_time(token);
    } else if (cmd == "fault") {
      int pid = 0, copy = 0, count = 0;
      copy_index(ls, "fault", pid, copy);
      if (!(ls >> count) || count <= 0) {
        fail("expected 'fault <process> <copy> <count>' with count >= 1");
      }
      f.perturbation.scenario.add_fault(CopyRef{ProcessId{pid}, copy}, count);
    } else if (cmd == "exec-scale" || cmd == "arrival-scale") {
      int pid = 0, copy = 0, scale = 0;
      copy_index(ls, cmd.c_str(), pid, copy);
      if (!(ls >> scale) || scale < 1 || scale > kFuzzScaleOne) {
        fail("scale must be in [1, " + std::to_string(kFuzzScaleOne) + "]");
      }
      std::vector<int>& v = cmd == "exec-scale"
                                ? f.perturbation.exec_scale
                                : f.perturbation.arrival_scale;
      if (v.empty()) {
        v.assign(static_cast<std::size_t>(first_copy.back()), kFuzzScaleOne);
      }
      v[static_cast<std::size_t>(
          first_copy[static_cast<std::size_t>(pid)] + copy)] = scale;
    } else if (cmd == "corrupt") {
      std::string where;
      if (!(ls >> where)) fail("expected 'corrupt node|bus ...'");
      TableCorruption c;
      if (where == "node") {
        if (!(ls >> c.node) || c.node < 0) fail("bad node index");
      } else if (where == "bus") {
        c.node = -1;
      } else {
        fail("expected 'corrupt node <idx> ...' or 'corrupt bus ...'");
      }
      std::string label, olds, news;
      if (!(ls >> c.row >> label >> olds >> news)) {
        fail("expected '<row> <label|-> <old-start> <new-start|delete>'");
      }
      c.label = label == "-" ? "" : label;
      c.old_start = parse_time(olds);
      if (news == "delete") {
        c.erase = true;
      } else {
        c.new_start = parse_time(news);
      }
      f.corruptions.push_back(std::move(c));
    } else if (cmd == "expect") {
      std::string kind;
      if (!(ls >> kind)) fail("expected 'expect <kind>|none'");
      if (kind == "none") {
        f.expect.clear();
      } else {
        const std::optional<FuzzKind> k = fuzz_kind_from_string(kind);
        if (!k) fail("unknown violation kind '" + kind + "'");
        f.expect.push_back(*k);
      }
    } else {
      fail("unknown directive '" + cmd + "'");
    }
  }
  return f;
}

void apply_corruptions(const std::vector<TableCorruption>& corruptions,
                       ScheduleTables& tables) {
  for (const TableCorruption& c : corruptions) {
    const std::string where =
        c.node < 0 ? "bus" : "node " + std::to_string(c.node);
    if (c.node >= static_cast<int>(tables.node_rows.size())) {
      throw std::runtime_error("corrupt " + where + ": no such node");
    }
    TableRows& rows =
        c.node < 0 ? tables.bus_rows
                   : tables.node_rows[static_cast<std::size_t>(c.node)];
    const auto row = rows.find(c.row);
    if (row == rows.end()) {
      throw std::runtime_error("corrupt " + where + ": no row '" + c.row +
                               "'");
    }
    std::vector<TableEntry>& entries = row->second;
    bool found = false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      if (entries[i].start != c.old_start || entries[i].label != c.label) {
        continue;
      }
      found = true;
      if (c.erase) {
        entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        entries[i].start = c.new_start;
        std::sort(entries.begin(), entries.end(),
                  [](const TableEntry& x, const TableEntry& y) {
                    return x.start < y.start;
                  });
      }
      break;
    }
    if (!found) {
      throw std::runtime_error("corrupt " + where + ": row '" + c.row +
                               "' has no entry '" + c.label + "' at t=" +
                               std::to_string(c.old_start) +
                               " (stale fixture?)");
    }
  }
}

}  // namespace ftes
