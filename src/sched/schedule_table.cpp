#include "sched/schedule_table.h"

#include <algorithm>
#include <sstream>

namespace ftes {

std::string copy_row_name(const std::string& name, const ProcessPlan& plan,
                          int copy) {
  if (copy < 0 || plan.copy_count() <= 1) return name;
  return name + "(" + std::to_string(copy + 1) + ")";
}

std::vector<int> copy_offsets(const Application& app,
                              const PolicyAssignment& pa) {
  std::vector<int> offsets(static_cast<std::size_t>(app.process_count()) + 1,
                           0);
  for (int i = 0; i < app.process_count(); ++i) {
    offsets[static_cast<std::size_t>(i) + 1] =
        offsets[static_cast<std::size_t>(i)] +
        pa.plan(ProcessId{i}).copy_count();
  }
  return offsets;
}

int CondRegistry::id(CopyRef copy, int fault_index, const std::string& name) {
  const auto key = std::make_pair(
      std::make_pair(copy.process.get(), copy.copy), fault_index);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const int new_id = static_cast<int>(labels_.size());
  ids_[key] = new_id;
  labels_.push_back("F_" + name + "^" + std::to_string(fault_index));
  copies_.push_back(copy);
  fault_indices_.push_back(fault_index);
  return new_id;
}

int CondRegistry::find(CopyRef copy, int fault_index) const {
  const auto key = std::make_pair(
      std::make_pair(copy.process.get(), copy.copy), fault_index);
  auto it = ids_.find(key);
  return it == ids_.end() ? -1 : it->second;
}

const std::string& CondRegistry::label(int id) const {
  return labels_.at(static_cast<std::size_t>(id));
}

CopyRef CondRegistry::copy_of(int id) const {
  return copies_.at(static_cast<std::size_t>(id));
}

int CondRegistry::fault_index_of(int id) const {
  return fault_indices_.at(static_cast<std::size_t>(id));
}

std::string CondRegistry::render(const Guard& guard) const {
  if (guard.literals().empty()) return "true";
  std::ostringstream out;
  bool first = true;
  for (const Literal& lit : guard.literals()) {
    if (!first) out << " & ";
    first = false;
    if (!lit.faulted) out << "!";
    out << label(lit.vertex);
  }
  return out.str();
}

int ScheduleTables::total_entries() const {
  int count = 0;
  for (const TableRows& rows : node_rows) {
    for (const auto& [name, entries] : rows) count += static_cast<int>(entries.size());
  }
  for (const auto& [name, entries] : bus_rows) {
    count += static_cast<int>(entries.size());
  }
  return count;
}

namespace {

void render_rows(std::ostringstream& out, const TableRows& rows,
                 const CondRegistry& conds) {
  for (const auto& [name, entries] : rows) {
    out << "  " << name << ":";
    for (const TableEntry& e : entries) {
      out << "  " << e.start;
      if (!e.label.empty()) out << " (" << e.label << ")";
      out << " {" << conds.render(e.guard) << "}";
    }
    out << "\n";
  }
}

}  // namespace

std::string ScheduleTables::to_text(const Architecture& arch) const {
  std::ostringstream out;
  for (std::size_t n = 0; n < node_rows.size(); ++n) {
    out << "Schedule table for " << arch.node(NodeId{static_cast<std::int32_t>(n)}).name
        << ":\n";
    render_rows(out, node_rows[n], conds);
  }
  out << "Bus schedule:\n";
  render_rows(out, bus_rows, conds);
  out << "WCSL = " << wcsl << " over " << scenario_count << " scenarios, "
      << total_entries() << " table entries\n";
  return out.str();
}

}  // namespace ftes
