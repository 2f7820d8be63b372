#include "fault/scenario.h"

#include <functional>
#include <sstream>
#include <stdexcept>

namespace ftes {

void FaultScenario::add_fault(CopyRef copy, int count) {
  if (count < 0) throw std::invalid_argument("negative fault count");
  if (count == 0) return;
  hits_[copy] += count;
  total_ += count;
}

int FaultScenario::faults_on(CopyRef copy) const {
  auto it = hits_.find(copy);
  return it == hits_.end() ? 0 : it->second;
}

std::string FaultScenario::to_string(const Application& app) const {
  if (hits_.empty()) return "{no faults}";
  std::ostringstream out;
  out << "{";
  bool first = true;
  for (const auto& [ref, count] : hits_) {
    if (!first) out << ", ";
    first = false;
    out << app.process(ref.process).name;
    if (ref.copy > 0) out << "(" << ref.copy + 1 << ")";
    out << "x" << count;
  }
  out << "}";
  return out.str();
}

std::vector<FaultScenario> enumerate_scenarios(
    const Application& app, const PolicyAssignment& assignment, int k) {
  // Collect all copies, then distribute 0..k faults over them
  // (combinations with repetition, generated recursively).
  std::vector<CopyRef> copies;
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    const ProcessPlan& plan = assignment.plan(pid);
    for (int c = 0; c < plan.copy_count(); ++c) {
      copies.push_back(CopyRef{pid, c});
    }
  }
  std::vector<FaultScenario> result;
  FaultScenario current;
  std::function<void(std::size_t, int)> recurse = [&](std::size_t index,
                                                      int remaining) {
    if (index == copies.size()) {
      result.push_back(current);
      return;
    }
    for (int f = 0; f <= remaining; ++f) {
      FaultScenario saved = current;
      current.add_fault(copies[index], f);
      recurse(index + 1, remaining - f);
      current = std::move(saved);
    }
  };
  recurse(0, k);
  return result;
}

bool process_tolerates_all_scenarios(const ProcessPlan& plan, int k) {
  const int copies = plan.copy_count();
  std::vector<int> faults(static_cast<std::size_t>(copies), 0);
  std::function<bool(int, int)> recurse = [&](int index, int remaining) {
    if (index == copies) {
      for (int c = 0; c < copies; ++c) {
        if (faults[static_cast<std::size_t>(c)] <=
            plan.copies[static_cast<std::size_t>(c)].recoveries) {
          return true;  // this copy survives the split
        }
      }
      return false;
    }
    for (int f = 0; f <= remaining; ++f) {
      faults[static_cast<std::size_t>(index)] = f;
      const bool rest_ok =
          recurse(index + 1, remaining - f);
      faults[static_cast<std::size_t>(index)] = 0;
      if (!rest_ok) return false;
    }
    return true;
  };
  return recurse(0, k);
}

}  // namespace ftes
