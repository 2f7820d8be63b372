#include "open_loop.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/random.h"

extern char** environ;

namespace perfbench {

using Clock = std::chrono::steady_clock;

std::vector<double> arrival_schedule(std::uint64_t seed, int count,
                                     double window_s) {
  ftes::Rng rng(ftes::derive_stream_seed(seed, 0x5e4e));
  std::vector<double> due;
  due.reserve(static_cast<std::size_t>(count));
  const double slot = window_s / count;
  for (int i = 0; i < count; ++i) {
    due.push_back((i + rng.uniform_real(0.0, 1.0)) * slot);
  }
  return due;
}

bool write_all(int fd, const std::string& data) {
  std::size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string& line) {
  line.clear();
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return !line.empty();
    if (c == '\n') return true;
    line.push_back(c);
  }
}

OpenLoopResult run_open_loop(int to_server, int from_server,
                             const std::vector<std::string>& requests,
                             const std::vector<double>& due,
                             const std::string& final_line) {
  if (requests.size() != due.size()) {
    throw std::invalid_argument("run_open_loop: one due time per request");
  }
  const std::size_t n = requests.size();
  OpenLoopResult result;
  result.due = due;
  result.sent.assign(n, 0.0);
  result.received.assign(n, 0.0);

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::string> queue;  // unbounded: the generator never blocks
  bool closing = false;

  const Clock::time_point start = Clock::now();
  const auto since_start = [&start] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  std::thread writer([&] {
    for (;;) {
      std::string line;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !queue.empty() || closing; });
        if (queue.empty()) return;
        line = std::move(queue.front());
        queue.pop_front();
      }
      if (!write_all(to_server, line)) return;  // server gone: reader sees EOF
    }
  });

  std::thread reader([&] {
    std::string buffer;
    char chunk[1 << 16];
    std::size_t next = 0;
    for (;;) {
      const ssize_t got = ::read(from_server, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      const double now = since_start();
      buffer.append(chunk, static_cast<std::size_t>(got));
      std::size_t pos = 0;
      for (std::size_t nl; (nl = buffer.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        std::string line = buffer.substr(pos, nl - pos);
        if (next < n) {
          result.received[next] = now;
          result.responses.push_back(std::move(line));
          ++next;
        } else {
          result.trailer.push_back(std::move(line));
        }
      }
      buffer.erase(0, pos);
    }
    result.elapsed_s = since_start();
  });

  // Whatever happens, the final line goes out so that the server ends its
  // output and both threads can be joined.
  std::exception_ptr error;
  try {
    for (std::size_t i = 0; i < n; ++i) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i])));
      {
        const std::lock_guard<std::mutex> lock(mu);
        result.sent[i] = since_start();
        queue.push_back(requests[i] + "\n");
      }
      cv.notify_one();
    }
  } catch (...) {
    error = std::current_exception();
  }
  {
    const std::lock_guard<std::mutex> lock(mu);
    queue.push_back(final_line);
    closing = true;
  }
  cv.notify_one();
  writer.join();
  reader.join();
  if (error) std::rethrow_exception(error);
  return result;
}

ChildProcess::ChildProcess(const std::vector<std::string>& argv) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe2");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe2");
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (rc != 0) {
    pid_ = -1;
    close_pipes();
    throw std::runtime_error("cannot start " + argv[0]);
  }
}

ChildProcess::~ChildProcess() {
  if (pid_ < 0) {
    close_pipes();
    return;
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  try {
    wait(status);
  } catch (const std::exception&) {
    // Nothing left to reap.
  }
}

void ChildProcess::close_pipes() {
  if (to_child_ >= 0) ::close(to_child_);
  if (from_child_ >= 0) ::close(from_child_);
  to_child_ = from_child_ = -1;
}

void ChildProcess::wait(int& exit_status) {
  close_pipes();
  int status = 0;
  pid_t got = -1;
  do {
    got = ::waitpid(pid_, &status, 0);
  } while (got < 0 && errno == EINTR);
  if (got != pid_) throw std::runtime_error("waitpid failed");
  pid_ = -1;
  exit_status =
      WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

}  // namespace perfbench
