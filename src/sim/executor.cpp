#include "sim/executor.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "util/thread_pool.h"

namespace ftes {

namespace {

/// True if `guard` is entailed by the values revealed in `trace` strictly
/// up to (and including) time `t`.
bool guard_entailed(const Guard& guard, const ScenarioTrace& trace, Time t) {
  for (const Literal& lit : guard.literals()) {
    bool found = false;
    for (const Reveal& r : trace.reveals) {
      if (r.at > t) break;
      if (r.cond_id == lit.vertex && r.value == lit.faulted) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

/// Finds a table entry for (rows, row, start) whose guard is entailed.
bool entry_matches(const TableRows& rows, const std::string& row, Time start,
                   const ScenarioTrace& trace) {
  auto it = rows.find(row);
  if (it == rows.end()) return false;
  for (const TableEntry& e : it->second) {
    if (e.start == start && guard_entailed(e.guard, trace, start)) {
      return true;
    }
  }
  return false;
}

std::string copy_display_name(const Application& app,
                              const PolicyAssignment& pa, CopyRef ref) {
  return copy_row_name(app.process(ref.process).name, pa.plan(ref.process),
                       ref.copy);
}

}  // namespace

ExecutionReport execute_scenario(const Application& app,
                                 const PolicyAssignment& assignment,
                                 const CondScheduleResult& schedule,
                                 const ScenarioTrace& trace) {
  ExecutionReport report;

  // Property 1: each process completed by a surviving copy, on time.
  std::vector<Time> finish(static_cast<std::size_t>(app.process_count()),
                           kTimeInfinity);
  for (const ExecTrace& e : trace.execs) {
    if (e.died) continue;
    auto& f = finish[static_cast<std::size_t>(e.copy.process.get())];
    f = std::min(f, e.end);  // earliest surviving copy delivers the result
  }
  for (int i = 0; i < app.process_count(); ++i) {
    const Process& p = app.process(ProcessId{i});
    const Time f = finish[static_cast<std::size_t>(i)];
    if (f == kTimeInfinity) {
      report.fail("process " + p.name + " never completes in scenario " +
                  trace.scenario.to_string(app));
      continue;
    }
    if (p.local_deadline && f > *p.local_deadline) {
      report.fail("process " + p.name + " misses its local deadline in " +
                  trace.scenario.to_string(app));
    }
  }
  if (trace.makespan > app.deadline()) {
    report.fail("deadline missed (" + std::to_string(trace.makespan) + " > " +
                std::to_string(app.deadline()) + ") in scenario " +
                trace.scenario.to_string(app));
  }
  report.completion = trace.makespan;

  // Property 2: every activation is covered by a matching table column.
  for (const ExecTrace& e : trace.execs) {
    const std::string name = copy_display_name(app, assignment, e.copy);
    const NodeId node =
        assignment.plan(e.copy.process)
            .copies.at(static_cast<std::size_t>(e.copy.copy))
            .node;
    const TableRows& rows =
        schedule.tables.node_rows.at(static_cast<std::size_t>(node.get()));
    for (Time start : e.attempt_starts) {
      if (!entry_matches(rows, name, start, trace)) {
        report.fail("activation of " + name + " at t=" +
                    std::to_string(start) +
                    " has no entailed table entry in scenario " +
                    trace.scenario.to_string(app));
      }
    }
  }
  for (const TxTrace& tx : trace.txs) {
    const std::string row = tx.is_condition
                                ? schedule.tables.conds.label(tx.cond_id)
                                : app.message(tx.msg).name;
    if (!entry_matches(schedule.tables.bus_rows, row, tx.start, trace)) {
      report.fail("bus activation of " + row + " at t=" +
                  std::to_string(tx.start) +
                  " has no entailed table entry in scenario " +
                  trace.scenario.to_string(app));
    }
  }
  return report;
}

ExecutionReport check_all_scenarios(const Application& app,
                                    const PolicyAssignment& assignment,
                                    const CondScheduleResult& schedule,
                                    const ExecCheckOptions& options) {
  ExecutionReport report;

  // Per-scenario checks are independent: run them into scenario-indexed
  // slots and fold serially so the report never depends on thread timing.
  std::vector<ExecutionReport> slots(schedule.traces.size());
  const int threads = resolve_threads(options.threads);
  ThreadPool& pool = options.pool ? *options.pool : ThreadPool::shared();
  parallel_for(pool, schedule.traces.size(), threads, [&](std::size_t i) {
    // Chunk-granular cancellation point: an armed deadline fires within one
    // scenario check; the prefix already verified is folded below.
    if (options.cancel && options.cancel->poll()) return;
    slots[i] = execute_scenario(app, assignment, schedule,
                                schedule.traces[i]);
    std::sort(slots[i].violations.begin(), slots[i].violations.end());
  });
  if (options.cancel && options.cancel->cancelled()) {
    report.cancelled = true;
    return report;  // a partial sweep must never read as a full validation
  }
  for (ExecutionReport& one : slots) {
    report.completion = std::max(report.completion, one.completion);
    if (!one.ok) {
      report.ok = false;
      for (std::string& v : one.violations) {
        report.violations.push_back(std::move(v));
      }
    }
  }

  // Property 3: transparency.
  // lint: cold-path -- one-shot transparency check over final traces; the
  // per-move evaluation path (EvalContext) never runs this.
  std::map<std::string, Time> frozen_start;
  for (const ScenarioTrace& trace : schedule.traces) {
    for (const ExecTrace& e : trace.execs) {
      if (!app.process(e.copy.process).frozen) continue;
      const std::string name = copy_display_name(app, assignment, e.copy);
      auto [it, inserted] = frozen_start.emplace(name, e.start);
      if (!inserted && it->second != e.start) {
        report.fail("frozen process " + name + " starts at both " +
                    std::to_string(it->second) + " and " +
                    std::to_string(e.start));
      }
    }
    for (const TxTrace& tx : trace.txs) {
      if (tx.is_condition || !app.message(tx.msg).frozen) continue;
      const std::string name = app.message(tx.msg).name;
      auto [it, inserted] = frozen_start.emplace(name, tx.start);
      if (!inserted && it->second != tx.start) {
        report.fail("frozen message " + name + " transmitted at both " +
                    std::to_string(it->second) + " and " +
                    std::to_string(tx.start));
      }
    }
  }
  return report;
}

}  // namespace ftes
