// In-memory spans recorded by the benchmark around its calls into the
// program's layers.  Spans are kept until the run ends and then written
// out; a span's self time is its duration minus that of its children.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds since the tracer was created
  double end = 0.0;
  int parent = -1;     ///< index of the enclosing span, -1 for none
  int job = -1;        ///< the job (or request) the span belongs to
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int begin(const std::string& name, int job) {
    spans_.push_back(Span{name, now(), 0.0,
                          open_.empty() ? -1 : open_.back(), job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void end(int span) {
    spans_[static_cast<std::size_t>(span)].end = now();
    open_.pop_back();
  }

  /// Runs `body` inside a span named `name`.
  template <class Body>
  auto span(const std::string& name, int job, Body&& body) {
    struct Scope {
      Tracer& t;
      int id;
      ~Scope() { t.end(id); }
    } scope{*this, begin(name, job)};
    return body();
  }

  struct Totals {
    long long calls = 0;
    double seconds = 0.0;       ///< summed duration
    double self_seconds = 0.0;  ///< summed duration minus children
  };
  /// Per span name: calls, total and self time.
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// All spans as a JSON array.
  [[nodiscard]] std::string to_json() const;

 private:
  [[nodiscard]] double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
