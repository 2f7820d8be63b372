// Open-loop load generation over a line protocol, and the child-process
// plumbing the serve workload and the set-up probes use.
//
// The generator sends each request at its scheduled due time whatever the
// server is doing: it hands the line to a writer thread through an
// unbounded queue, so a full pipe stalls the writer, never the schedule.
// Latency is taken from the due time to the response line, so a stall
// also counts against every request that was due while it lasted.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Due times (seconds from the start of the run) of `count` requests at a
/// fixed offered rate over `window_s`: request i is due at a seeded
/// uniform point of its own slot [i, i+1) * window_s / count, so the rate
/// holds over every stretch of the run and bursts stay bounded.
[[nodiscard]] std::vector<double> arrival_schedule(std::uint64_t seed,
                                                   int count, double window_s);

struct OpenLoopResult {
  std::vector<double> due;       ///< scheduled send, seconds from start
  std::vector<double> sent;      ///< when the generator queued the line
  std::vector<double> received;  ///< when the matching response line arrived
  std::vector<std::string> responses;  ///< one per request, in order
  std::vector<std::string> trailer;    ///< lines after the last response
  double elapsed_s = 0.0;        ///< start to end of the response stream

  /// Latency of request i: due time to its response line.
  [[nodiscard]] double latency(std::size_t i) const {
    return received[i] - due[i];
  }
};

/// Sends `requests[i]` (one line each, without the newline) at `due[i]`,
/// then `final_line`, and reads response lines from `from_server` until
/// end of file; the first requests.size() lines are the responses.  The
/// descriptors stay open and belong to the caller.
[[nodiscard]] OpenLoopResult run_open_loop(
    int to_server, int from_server, const std::vector<std::string>& requests,
    const std::vector<double>& due, const std::string& final_line);

/// A child process with pipes on its stdin and stdout.  The destructor
/// kills and reaps a child that was not waited for, so no process outlives
/// the benchmark.
class ChildProcess {
 public:
  /// Spawns argv[0] (a path) with the given arguments.  Throws
  /// std::runtime_error when the process cannot be started.
  explicit ChildProcess(const std::vector<std::string>& argv);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] int in() const { return to_child_; }     ///< child's stdin
  [[nodiscard]] int out() const { return from_child_; }  ///< child's stdout

  /// Closes both pipes and waits for the child.  Stores its exit status
  /// (128 + signal when killed).  Throws std::runtime_error if waiting
  /// fails.
  void wait(int& exit_status);

 private:
  void close_pipes();

  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
};

/// Reads one line (without the newline) from `fd`; false at end of file.
bool read_line(int fd, std::string& line);

/// Writes all of `data` to `fd`; false on error (EPIPE included).
bool write_all(int fd, const std::string& data);

}  // namespace perfbench
