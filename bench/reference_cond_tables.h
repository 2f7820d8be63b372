// Reference implementation of the historical schedule-table fold: every
// activation of every scenario becomes a record carrying its own guard,
// built one Guard::add at a time from the scenario's reveals, and records
// with the same (node, row, label, start) are intersected pairwise in a
// string-keyed map.  The production fold (sched/cond_scheduler.cpp) keys
// records by integers and intersects in place against a per-scenario
// reveal index; this reference pins the tables it must reproduce byte for
// byte.  Used by the equivalence test in tests/test_cond_scheduler.cpp.
// Not part of the library.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "sched/cond_scheduler.h"

namespace ftes::testing {

/// The tables the historical fold builds from `schedule`'s traces and
/// condition registry.
inline ScheduleTables reference_build_tables(
    const Application& app, const Architecture& arch,
    const PolicyAssignment& pa, const CondScheduleResult& schedule) {
  ScheduleTables tables;
  tables.node_rows.assign(static_cast<std::size_t>(arch.node_count()),
                          TableRows{});
  const CondRegistry& conds = schedule.tables.conds;
  std::map<std::tuple<int, std::string, std::string, Time>, Guard> agg;
  auto intersect = [](const Guard& a, const Guard& b) {
    Guard g;
    for (const Literal& lit : a.literals()) {
      if (b.contains(lit)) g.add(lit);
    }
    return g;
  };
  for (const ScenarioTrace& tr : schedule.traces) {
    auto guard_at = [&](Time t) {
      Guard g;
      for (const Reveal& r : tr.reveals) {
        if (r.at > t) break;
        g.add(Literal{r.cond_id, r.value});
      }
      return g;
    };
    auto fold = [&](int node, const std::string& row,
                    const std::string& label, Time start, const Guard& g) {
      auto [it, inserted] =
          agg.emplace(std::make_tuple(node, row, label, start), g);
      if (!inserted) it->second = intersect(it->second, g);
    };
    for (const ExecTrace& e : tr.execs) {
      const ProcessPlan& plan = pa.plan(e.copy.process);
      const int node =
          plan.copies[static_cast<std::size_t>(e.copy.copy)].node.get();
      const std::string name =
          copy_row_name(app.process(e.copy.process).name, plan, e.copy.copy);
      for (std::size_t a = 0; a < e.attempt_starts.size(); ++a) {
        const Time t = e.attempt_starts[a];
        fold(node, name, name + "/" + std::to_string(a + 1), t, guard_at(t));
      }
    }
    for (const TxTrace& tx : tr.txs) {
      if (tx.is_condition) {
        fold(-1, conds.label(tx.cond_id), "", tx.start, guard_at(tx.ready));
      } else {
        const Message& m = app.message(tx.msg);
        fold(-1, m.name, copy_row_name(m.name, pa.plan(m.src), tx.src_copy),
             tx.start, guard_at(tx.ready));
      }
    }
  }
  for (auto& [key, guard] : agg) {
    const auto& [node, row, label, start] = key;
    TableEntry entry{guard, start, label};
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
  tables.conds = conds;
  tables.wcsl = schedule.tables.wcsl;
  tables.scenario_count = schedule.tables.scenario_count;
  return tables;
}

}  // namespace ftes::testing
