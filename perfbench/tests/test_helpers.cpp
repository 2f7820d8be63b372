// Tests of the benchmark's own helpers: the tail-percentile rule,
// open-loop timing from the due time, seeded inputs, and the `.ftes`
// writer's round trip.  Run with `python3 perfbench/run.py --test`.
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "ftes_writer.h"
#include "gen/taskgen.h"
#include "io/app_parser.h"
#include "open_loop.h"
#include "serve/result_cache.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void tail_is_the_highest_percentile_with_ten_samples_beyond() {
  using perfbench::tail;
  CHECK(!tail(one_to(39)).present);
  CHECK(!tail({}).present);

  const perfbench::Tail t40 = tail(one_to(40));
  CHECK(t40.present && t40.percentile == 75.0 && t40.beyond == 10);
  CHECK(t40.value == 30.0);

  const perfbench::Tail t99 = tail(one_to(99));  // p90: rank 90, 9 beyond
  CHECK(t99.present && t99.percentile == 75.0);
  const perfbench::Tail t100 = tail(one_to(100));
  CHECK(t100.present && t100.percentile == 90.0 && t100.value == 90.0);
  const perfbench::Tail t1000 = tail(one_to(1000));
  CHECK(t1000.present && t1000.percentile == 99.0 && t1000.beyond == 10);
  const perfbench::Tail t10000 = tail(one_to(10000));
  CHECK(t10000.present && t10000.percentile == 99.9 && t10000.value == 9990.0);

  CHECK(perfbench::median(one_to(4)) == 2.5);
  CHECK(perfbench::percentile(one_to(10), 50.0) == 5.0);
}

/// A line server on two pipes: answers each request line at once, except
/// that it stalls for `stall_s` before reading the first one.
struct StallingServer {
  int requests[2] = {-1, -1};
  int responses[2] = {-1, -1};
  std::thread thread;

  explicit StallingServer(double stall_s) {
    if (::pipe(requests) != 0 || ::pipe(responses) != 0) {
      throw std::runtime_error("pipe");
    }
    thread = std::thread([this, stall_s] {
      std::this_thread::sleep_for(std::chrono::duration<double>(stall_s));
      std::string buffer;
      char chunk[1 << 16];
      for (bool quit = false; !quit;) {
        const ssize_t got = ::read(requests[0], chunk, sizeof chunk);
        if (got <= 0) break;
        buffer.append(chunk, static_cast<std::size_t>(got));
        std::size_t pos = 0;
        for (std::size_t nl; !quit && (nl = buffer.find('\n', pos)) !=
                                          std::string::npos;
             pos = nl + 1) {
          quit = buffer.compare(pos, nl - pos, "quit") == 0;
          if (!quit) {
            (void)perfbench::write_all(responses[1],
                                       "ok " + buffer.substr(pos, 1) + "\n");
          }
        }
        buffer.erase(0, pos);
      }
      ::close(responses[1]);
    });
  }
  ~StallingServer() {
    thread.join();
    ::close(requests[0]);
    ::close(requests[1]);
    ::close(responses[0]);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;
};

void open_loop_latency_counts_from_the_due_time() {
  // Requests due every 50 ms; the server stalls 300 ms before reading.
  // Each request is 256 KiB, more than a pipe holds, so the writer blocks
  // on the stalled server while the generator must keep to its schedule.
  const double stall = 0.3;
  const std::vector<double> due = {0.0, 0.05, 0.10, 0.15, 0.20, 0.40, 0.45};
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < due.size(); ++i) {
    lines.push_back(std::to_string(i) + std::string(256 * 1024, 'x'));
  }
  perfbench::OpenLoopResult r;
  {
    StallingServer server(stall);
    r = perfbench::run_open_loop(server.requests[1], server.responses[0],
                                 lines, due, "quit\n");
  }
  CHECK(r.responses.size() == due.size());
  CHECK(r.trailer.empty());
  for (std::size_t i = 0; i < due.size(); ++i) {
    CHECK(r.sent[i] - r.due[i] < 0.04);  // the generator never waited
    if (due[i] < stall) {
      // Due during the stall: late by at least the rest of the stall.
      CHECK(r.latency(i) >= stall - due[i] - 0.01);
    } else {
      CHECK(r.latency(i) < 0.1);  // the backlog has drained
    }
  }
  CHECK(r.responses[3].compare(0, 4, "ok 3") == 0);
}

void seeded_inputs_are_reproducible() {
  const std::vector<double> a = perfbench::arrival_schedule(7, 50, 10.0);
  CHECK(a == perfbench::arrival_schedule(7, 50, 10.0));
  CHECK(a != perfbench::arrival_schedule(8, 50, 10.0));
  for (std::size_t i = 0; i < a.size(); ++i) {
    CHECK(a[i] >= 0.2 * static_cast<double>(i) &&
          a[i] < 0.2 * static_cast<double>(i + 1));
  }
  for (const char* name : {"paper_search", "serve"}) {
    const perfbench::Workload w1 = perfbench::make_workload(name, 3, 2, false);
    const perfbench::Workload w2 = perfbench::make_workload(name, 3, 2, false);
    const perfbench::Workload w3 = perfbench::make_workload(name, 4, 2, false);
    CHECK(w1.fingerprint == w2.fingerprint);
    CHECK(w1.fingerprint != w3.fingerprint);
  }
}

void ftes_writer_round_trips() {
  using namespace ftes;
  for (int seed = 1; seed <= 20; ++seed) {
    TaskGenParams params;
    params.process_count = 10 + seed;
    params.node_count = 2 + seed % 4;
    params.frozen_process_fraction = seed % 2 ? 0.2 : 0.0;
    params.frozen_message_fraction = seed % 2 ? 0.2 : 0.0;
    Rng rng(static_cast<std::uint64_t>(seed));
    Application app = generate_application(params, rng);
    app.set_period(0);
    const Architecture arch = generate_architecture(params);
    FaultModel model;
    model.k = 1 + seed % 3;
    SynthesisOptions options;
    options.fault_model = model;
    const std::string key = serve::canonical_key(app, arch, model, options);

    const ParsedProblem back =
        parse_problem_string(perfbench::write_ftes(app, arch, model));
    CHECK(serve::canonical_key(back.app, back.arch, back.model, options) ==
          key);
    const ParsedProblem renamed =
        parse_problem_string(perfbench::write_ftes(app, arch, model, "r"));
    CHECK(serve::canonical_key(renamed.app, renamed.arch, renamed.model,
                               options) == key);
    const std::string escaped =
        perfbench::escape_request_text(perfbench::write_ftes(app, arch, model));
    CHECK(escaped.find('\n') == std::string::npos);
  }
}

}  // namespace

int main() {
  tail_is_the_highest_percentile_with_ten_samples_beyond();
  open_loop_latency_counts_from_the_due_time();
  seeded_inputs_are_reproducible();
  ftes_writer_round_trips();
  if (failures) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench helper tests passed\n");
  return 0;
}
