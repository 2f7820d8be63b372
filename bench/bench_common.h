// Shared helpers for the figure-reproduction benches.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench_report.h"
#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace ftes::bench {

/// One experimental instance drawn with the paper's parameter ranges
/// (Section 6: 20-100 processes, 2-6 nodes, k = 3-7).
struct Instance {
  Application app;
  Architecture arch;
  int k = 3;
  std::uint64_t seed = 0;
};

inline Instance make_instance(int processes, std::uint64_t seed) {
  TaskGenParams params;
  params.process_count = processes;
  Rng seeder(seed);
  params.node_count = static_cast<int>(seeder.uniform_int(2, 6));
  Instance inst;
  inst.k = static_cast<int>(seeder.uniform_int(3, 7));
  inst.seed = seed;
  inst.app = generate_application(params, seeder);
  inst.arch = generate_architecture(params);
  return inst;
}

/// Shared tabu budget for all approaches (fairness of Fig. 7).
inline OptimizeOptions bench_options(std::uint64_t seed) {
  OptimizeOptions opts;
  opts.iterations = 80;
  opts.neighborhood = 12;
  opts.seed = seed;
  return opts;
}

/// Command line shared by the sweep benches:
///   <bench> [seeds_per_size] [--threads n] [--bench-json <file>]
/// Threads parallelize across instances (the per-instance optimizers stay
/// serial so per-seed results are identical for every thread count).
/// --bench-json additionally writes a machine-readable BenchReport
/// (bench_report.h) to the given path.
struct SweepConfig {
  int seeds_per_size = 5;
  int threads = 1;
  const char* bench_json = nullptr;
};

inline SweepConfig parse_sweep_args(int argc, char** argv) {
  SweepConfig cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --threads needs a value\n", argv[0]);
        std::exit(1);
      }
      cfg.threads = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--bench-json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --bench-json needs a path\n", argv[0]);
        std::exit(1);
      }
      cfg.bench_json = argv[++i];
    } else if (argv[i][0] >= '0' && argv[i][0] <= '9') {
      cfg.seeds_per_size = std::atoi(argv[i]);
    } else {
      std::fprintf(stderr,
                   "usage: %s [seeds_per_size] [--threads n] "
                   "[--bench-json <file>]\n",
                   argv[0]);
      std::exit(1);
    }
  }
  return cfg;
}

/// Evaluates body(seed_index) for every seed of one sweep size, `threads`
/// at a time, collecting results in seed order (deterministic output for
/// any thread count).  `body` must be pure in everything but its slot.
template <class Result, class Body>
std::vector<Result> sweep_seeds(int seeds_per_size, int threads,
                                const Body& body) {
  std::vector<Result> results(static_cast<std::size_t>(seeds_per_size));
  parallel_for(results.size(), resolve_threads(threads),
               [&](std::size_t s) { results[s] = body(static_cast<int>(s)); });
  return results;
}

using ftes::Stopwatch;  // wall-clock helper for the sweeps' summary lines

/// Appends the sweeps' shared "total" BenchReport entry: throughput plus
/// the reuse rates of the incremental evaluator.  One helper so
/// the fig7/fig8 artifact schemas cannot drift apart.
inline void add_total_entry(BenchReport& report, const EvalStats& total,
                            double seconds) {
  BenchReport::Entry& entry = report.add("total");
  entry.wall_seconds = seconds;
  entry.metric("evaluations", static_cast<double>(total.evaluations));
  entry.metric("evaluations_per_sec",
               seconds > 0
                   ? static_cast<double>(total.evaluations) / seconds
                   : 0.0);
  entry.metric("sched_resume_rate", total.ls_resume_fraction());
  entry.metric("rebase_cache_hit_rate",
               total.rebases > 0
                   ? static_cast<double>(total.rebase_cache_hits) /
                         static_cast<double>(total.rebases)
                   : 0.0);
  // Queue pops and the events the move schedules executed (resumed
  // prefixes excluded): CI bounds their ratio.
  entry.metric("heap_pops", static_cast<double>(total.heap_pops));
  entry.metric("sched_events_replayed",
               static_cast<double>(total.ls_events_total -
                                   total.ls_events_resumed));
}

}  // namespace ftes::bench
