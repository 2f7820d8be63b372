#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ftes_writer.h"
#include "gen/taskgen.h"
#include "io/app_parser.h"
#include "open_loop.h"
#include "serve/result_cache.h"
#include "stats.h"
#include "util/random.h"

namespace perfbench {

using namespace ftes;

namespace {

// Jobs per second of requested run time at --threads 1 on a 4-vCPU Xeon
// VM.  They only size the fixed job list.
constexpr double kPaperJobsPerSecond = 3.5;
// Serve: offered rate.  Fresh jobs take ~60 ms on average at width 1, so
// the server is busy about a quarter of the time: well under capacity,
// where CPU-speed noise does not turn into queueing.
constexpr double kServeRequestsPerSecond = 6.0;
// Enough jobs for a p75 with ten samples beyond it (stats.h).
constexpr int kMinClosedLoopJobs = 40;
// A traced closed loop runs every job twice plus a replay after it.
constexpr int kTracedShare = 3;
constexpr int kMinTracedJobs = 8;

struct Problem {
  Application app;
  Architecture arch;
  FaultModel model;
};

Problem generate(const TaskGenParams& params, int k, std::uint64_t seed) {
  Rng rng(seed);
  Problem p;
  p.app = generate_application(params, rng);
  p.app.set_period(0);  // single-period problems: the format has no period
  p.arch = generate_architecture(params);
  p.model.k = k;
  return p;
}

/// Writes the problem and checks the `.ftes` round trip on the settings
/// it will run with: the parsed text must key exactly like the original.
std::string to_text(const Problem& p, const SynthesisOptions& options) {
  std::string text = write_ftes(p.app, p.arch, p.model);
  const ParsedProblem back = parse_problem_string(text);
  if (serve::canonical_key(back.app, back.arch, back.model, options) !=
      serve::canonical_key(p.app, p.arch, p.model, options)) {
    throw std::runtime_error("the .ftes round trip changed a problem");
  }
  return text;
}

int job_count(double per_second, int seconds, int minimum) {
  return std::max(minimum,
                  static_cast<int>(std::lround(per_second * seconds)));
}

// Fig. 7's instance distribution (20-100 processes, 2-6 nodes, k = 3-7)
// at fig7's tabu budget.  Each block of nine jobs holds the sizes 20, 30,
// ..., 100 once, and node counts and k vary over the blocks in a fixed
// design, so every run holds the same mix of shapes and the seed varies
// only the graphs and the search.  Evenly spaced sizes keep the job-time
// distribution free of gaps that would make its median jump.
constexpr int kPaperBlock = 9;

void make_paper_search(Workload& w, std::uint64_t seed, int n) {
  for (int j = 0; j < n; ++j) {
    const int a = j % kPaperBlock;
    const int b = j / kPaperBlock;
    TaskGenParams params;
    params.process_count = 20 + 10 * a;
    params.node_count = 2 + (a + b) % 5;
    const int k = 3 + (a + 2 * b) % 5;
    JobSpec job;
    job.label = "p" + std::to_string(params.process_count) + " n" +
                std::to_string(params.node_count) + " k" + std::to_string(k);
    job.seed = derive_stream_seed(seed, static_cast<std::uint64_t>(j));
    job.iterations = 80;
    job.neighborhood = 12;
    job.text = to_text(generate(params, k, derive_stream_seed(~seed, j)),
                       job_options(job));
    w.jobs.push_back(std::move(job));
  }
}

// Open loop against `ftes_cli --serve` at its default width: fresh jobs of
// 10-30 processes with k <= 2, tables on and 40 iterations, plus every
// third request a repeat of an earlier fresh one (alternately exact and
// renamed), which the result cache answers.
void make_serve(Workload& w, std::uint64_t seed, int seconds) {
  w.open_loop = true;
  const int n =
      job_count(kServeRequestsPerSecond, seconds, kMinClosedLoopJobs);
  w.offered_rate = static_cast<double>(n) / seconds;
  Rng pick(derive_stream_seed(seed, 0x7e9));
  std::vector<int> fresh;
  int repeats = 0;
  for (int i = 0; i < n; ++i) {
    ServeRequest req;
    if (i % 3 == 2) {
      const int first = fresh[pick.index(fresh.size())];
      const ServeRequest& orig = w.requests[static_cast<std::size_t>(first)];
      req.first = first;
      req.seed = orig.seed;
      req.iterations = orig.iterations;
      if (repeats++ % 2 == 1) {
        const ParsedProblem p = parse_problem_string(orig.text);
        req.text = write_ftes(p.app, p.arch, p.model, "r");
      } else {
        req.text = orig.text;
      }
    } else {
      // Shapes in a fixed design over the fresh index.  Half the fresh
      // jobs are small (10-12 processes, ~20 ms), so the median request,
      // which falls at the fresh jobs' first quartile, lies inside one
      // dense cluster of job times; the rest reach 30 processes and set
      // the tail.
      struct Shape {
        int processes, k;
      };
      const Shape shapes[] = {{10, 1}, {20, 2}, {10, 2},
                              {25, 1}, {12, 1}, {30, 1}};
      const int f = static_cast<int>(fresh.size());
      const Shape& s = shapes[f % 6];
      TaskGenParams params;
      params.process_count = s.processes;
      params.node_count = 2 + f / 6 % 3;
      params.deadline_factor = 12.0;
      req.seed = derive_stream_seed(seed, static_cast<std::uint64_t>(i));
      req.iterations = 40;
      fresh.push_back(i);
      const Problem p =
          generate(params, s.k,
                   derive_stream_seed(~seed, static_cast<std::uint64_t>(i)));
      req.text = to_text(p, serve_options(req));
    }
    req.line = "job id=q" + std::to_string(i) + " seed=" +
               std::to_string(req.seed) + " iterations=" +
               std::to_string(req.iterations) +
               " tables=1 text=" + escape_request_text(req.text);
    w.requests.push_back(std::move(req));
  }
  w.due = arrival_schedule(seed, n, static_cast<double>(seconds));
}

}  // namespace

SynthesisOptions job_options(const JobSpec& job) {
  SynthesisOptions o;
  o.optimize.seed = job.seed;
  o.optimize.iterations = job.iterations;
  o.optimize.neighborhood = job.neighborhood;
  o.optimize.threads = 1;
  o.build_schedule_tables = false;
  return o;
}

SynthesisOptions serve_options(const ServeRequest& request) {
  SynthesisOptions o;
  o.optimize.seed = request.seed;
  o.optimize.iterations = request.iterations;
  o.optimize.threads = 1;
  o.build_schedule_tables = true;
  return o;
}

std::vector<std::string> serve_command(const std::string& cli) {
  return {cli, "--serve", "--threads", "1", "--serve-jobs", "1"};
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       int seconds, bool traced) {
  Workload w;
  w.name = name;
  if (name == "paper_search") {
    // A whole number of blocks: enough for about `seconds`, at least
    // kMinClosedLoopJobs, and a third of that when traced.
    int n = job_count(kPaperJobsPerSecond, seconds, kMinClosedLoopJobs);
    if (traced) n = std::max(kMinTracedJobs, n / kTracedShare);
    w.block = kPaperBlock;
    make_paper_search(w, seed,
                      (n + kPaperBlock - 1) / kPaperBlock * kPaperBlock);
  } else if (name == "serve") {
    make_serve(w, seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  Fingerprint fp;
  fp.add(name);
  for (const JobSpec& j : w.jobs) {
    fp.add(j.text);
    fp.add(j.seed);
    fp.add(static_cast<std::uint64_t>(j.iterations) << 32 |
           static_cast<std::uint64_t>(j.neighborhood));
  }
  for (std::size_t i = 0; i < w.requests.size(); ++i) {
    fp.add(w.requests[i].line);
    fp.add(static_cast<std::uint64_t>(std::llround(w.due[i] * 1e6)));
  }
  w.fingerprint = fp.hex();
  return w;
}

}  // namespace perfbench
