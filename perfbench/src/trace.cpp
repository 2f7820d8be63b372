#include "trace.h"

#include <cstdio>
#include <sstream>

namespace perfbench {

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    ++t.calls;
    t.seconds += s.end - s.start;
    t.self_seconds += s.end - s.start - child_time[i];
  }
  return out;
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  out << "[";
  char buf[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"job\": " << s.job << ", \"parent\": " << s.parent;
    std::snprintf(buf, sizeof buf, ", \"start\": %.9f, \"end\": %.9f}",
                  s.start, s.end);
    out << buf;
  }
  out << "\n]\n";
  return out.str();
}

}  // namespace perfbench
