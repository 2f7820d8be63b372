#include "app/application.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "arch/architecture.h"

namespace ftes {

Time Process::wcet_on(NodeId n) const {
  auto it = wcet.find(n);
  if (it == wcet.end()) {
    throw std::invalid_argument("process '" + name +
                                "' has a mapping restriction on node " +
                                std::to_string(n.get()));
  }
  return it->second;
}

ProcessId Application::add_process(Process p) {
  if (p.name.empty()) p.name = "P" + std::to_string(processes_.size() + 1);
  processes_.push_back(std::move(p));
  in_edges_.emplace_back();
  out_edges_.emplace_back();
  return ProcessId{static_cast<std::int32_t>(processes_.size() - 1)};
}

ProcessId Application::add_process(std::string name,
                                   std::vector<std::pair<NodeId, Time>> wcets,
                                   Time alpha, Time mu, Time chi) {
  Process p;
  p.name = std::move(name);
  for (auto& [node, c] : wcets) p.wcet[node] = c;
  p.alpha = alpha;
  p.mu = mu;
  p.chi = chi;
  return add_process(std::move(p));
}

MessageId Application::add_message(Message m) {
  if (!m.src.valid() || m.src.get() >= process_count() || !m.dst.valid() ||
      m.dst.get() >= process_count()) {
    throw std::invalid_argument("message endpoints out of range");
  }
  if (m.src == m.dst) throw std::invalid_argument("self-message");
  if (m.name.empty()) m.name = "m" + std::to_string(messages_.size() + 1);
  messages_.push_back(std::move(m));
  const MessageId id{static_cast<std::int32_t>(messages_.size() - 1)};
  const Message& stored = messages_.back();
  out_edges_[static_cast<std::size_t>(stored.src.get())].push_back(id);
  in_edges_[static_cast<std::size_t>(stored.dst.get())].push_back(id);
  return id;
}

MessageId Application::connect(ProcessId src, ProcessId dst, std::string name,
                               std::int64_t size) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.name = std::move(name);
  m.size = size;
  return add_message(std::move(m));
}

std::vector<ProcessId> Application::predecessors(ProcessId p) const {
  std::vector<ProcessId> result;
  for (MessageId m : inputs(p)) {
    const ProcessId src = message(m).src;
    if (std::find(result.begin(), result.end(), src) == result.end()) {
      result.push_back(src);
    }
  }
  return result;
}

std::vector<ProcessId> Application::successors(ProcessId p) const {
  std::vector<ProcessId> result;
  for (MessageId m : outputs(p)) {
    const ProcessId dst = message(m).dst;
    if (std::find(result.begin(), result.end(), dst) == result.end()) {
      result.push_back(dst);
    }
  }
  return result;
}

std::vector<ProcessId> Application::topological_order() const {
  std::vector<int> indegree(processes_.size(), 0);
  for (const Message& m : messages_) {
    ++indegree[static_cast<std::size_t>(m.dst.get())];
  }
  std::vector<ProcessId> queue;
  for (int i = 0; i < process_count(); ++i) {
    if (indegree[static_cast<std::size_t>(i)] == 0) queue.push_back(ProcessId{i});
  }
  std::vector<ProcessId> order;
  order.reserve(processes_.size());
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const ProcessId p = queue[head];
    order.push_back(p);
    for (MessageId m : outputs(p)) {
      const ProcessId dst = message(m).dst;
      if (--indegree[static_cast<std::size_t>(dst.get())] == 0) {
        queue.push_back(dst);
      }
    }
  }
  if (order.size() != processes_.size()) {
    throw std::invalid_argument("application graph has a cycle");
  }
  return order;
}

void Application::validate(const Architecture& arch) const {
  if (processes_.empty()) throw std::invalid_argument("empty application");
  (void)topological_order();  // throws on cycles
  for (int i = 0; i < process_count(); ++i) {
    const Process& p = processes_[static_cast<std::size_t>(i)];
    if (p.wcet.empty()) {
      throw std::invalid_argument("process '" + p.name +
                                  "' cannot run on any node");
    }
    // Checked in node order: with several invalid entries the error thrown
    // (and thus any message a caller surfaces) must not depend on hash
    // iteration order.
    std::vector<std::pair<NodeId, Time>> entries(
        // lint: order-insensitive -- copied out, then sorted by node below
        p.wcet.begin(), p.wcet.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [node, c] : entries) {
      if (!node.valid() || node.get() >= arch.node_count()) {
        throw std::invalid_argument("process '" + p.name +
                                    "' references unknown node");
      }
      if (c <= 0) {
        throw std::invalid_argument("process '" + p.name +
                                    "' has non-positive WCET");
      }
    }
    if (p.fixed_mapping && !p.can_run_on(*p.fixed_mapping)) {
      throw std::invalid_argument("process '" + p.name +
                                  "' fixed to a restricted node");
    }
    if (p.alpha < 0 || p.mu < 0 || p.chi < 0 || p.release < 0) {
      throw std::invalid_argument("process '" + p.name +
                                  "' has negative overhead/release");
    }
  }
  for (const Message& m : messages_) {
    if (m.size <= 0) {
      throw std::invalid_argument("message '" + m.name +
                                  "' has non-positive size");
    }
  }
  if (deadline_ <= 0) throw std::invalid_argument("non-positive deadline");
}

}  // namespace ftes
