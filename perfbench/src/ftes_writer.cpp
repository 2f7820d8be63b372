#include "ftes_writer.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace perfbench {

using namespace ftes;

namespace {

const char* policy_name(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kCheckpointing: return "checkpointing";
    case PolicyKind::kReplication: return "replication";
    case PolicyKind::kReplicationAndCheckpointing: return "hybrid";
  }
  throw std::invalid_argument("unknown policy kind");
}

std::string node_name(NodeId n) { return "N" + std::to_string(n.get() + 1); }

}  // namespace

std::string write_ftes(const Application& app, const Architecture& arch,
                       const FaultModel& model,
                       const std::string& name_prefix) {
  const TdmaBus& bus = arch.bus();
  const std::vector<TdmaSlot>& slots = bus.slots();
  if (slots.size() != static_cast<std::size_t>(arch.node_count())) {
    throw std::invalid_argument("write_ftes: bus is not one slot per node");
  }
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].owner.get() != static_cast<int>(i) ||
        slots[i].length != slots.front().length) {
      throw std::invalid_argument("write_ftes: bus is not uniform");
    }
  }
  if (app.period() != 0) {
    throw std::invalid_argument("write_ftes: the format has no period");
  }

  std::ostringstream out;
  out << "arch nodes=" << arch.node_count() << " slot=" << slots.front().length
      << " payload=" << bus.slot_payload() << "\n"
      << "k " << model.k << "\n"
      << "deadline " << app.deadline() << "\n";
  std::vector<std::string> names;
  for (int i = 0; i < app.process_count(); ++i) {
    const Process& p = app.process(ProcessId{i});
    names.push_back(name_prefix +
                    (p.name.empty() ? "P" + std::to_string(i + 1) : p.name));
    out << "process " << names.back() << " wcet";
    std::vector<std::pair<NodeId, Time>> wcets(p.wcet.begin(), p.wcet.end());
    std::sort(wcets.begin(), wcets.end());
    for (const auto& [node, c] : wcets) {
      out << " " << node_name(node) << "=" << c;
    }
    out << " alpha=" << p.alpha << " mu=" << p.mu << " chi=" << p.chi;
    if (p.frozen) out << " frozen";
    if (p.fixed_mapping) out << " map=" << node_name(*p.fixed_mapping);
    if (p.local_deadline) out << " deadline=" << *p.local_deadline;
    if (p.release != 0) out << " release=" << p.release;
    if (p.fixed_policy) out << " policy=" << policy_name(*p.fixed_policy);
    if (p.soft) {
      // The parser reads the utility as an integer.
      const double u = p.soft->utility;
      if (u != static_cast<double>(static_cast<long long>(u))) {
        throw std::invalid_argument("write_ftes: non-integer soft utility");
      }
      out << " soft=" << static_cast<long long>(u) << ":"
          << p.soft->soft_deadline << ":" << p.soft->window;
    }
    out << "\n";
  }
  for (int i = 0; i < app.message_count(); ++i) {
    const Message& m = app.message(MessageId{i});
    out << "message " << name_prefix
        << (m.name.empty() ? "m" + std::to_string(i + 1) : m.name)
        << " " << names[static_cast<std::size_t>(m.src.get())] << " "
        << names[static_cast<std::size_t>(m.dst.get())] << " size=" << m.size;
    if (m.frozen) out << " frozen";
    out << "\n";
  }
  return out.str();
}

std::string escape_request_text(const std::string& text) {
  std::string out;
  out.reserve(text.size() + text.size() / 8);
  for (const char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace perfbench
