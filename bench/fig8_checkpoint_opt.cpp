// Regenerates the paper's Fig. 8: efficiency of the checkpointing
// optimization ([15] vs the per-process local optimum of [27]).
//
// For 40..100-process applications, checkpoint counts are set either by the
// isolated closed-form optimum of [27] (baseline) or by the global
// WCSL-driven optimization of [15]; the series is the average % deviation
// of the global FTO from the baseline FTO (larger deviation == smaller
// overhead, as in the paper's Fig. 8 which peaks around 10-40%).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "core/metrics.h"
#include "core/pipeline.h"
#include "core/synthesis.h"
#include "opt/baselines.h"
#include "opt/checkpoint_opt.h"
#include "sched/wcsl.h"

using namespace ftes;
using namespace ftes::bench;

namespace {

struct SeedResult {
  double fto_local = 0.0;
  double fto_global = 0.0;
  double deviation = 0.0;
  EvalStats stats;  ///< evaluator counters of the global optimization
};

}  // namespace

int main(int argc, char** argv) {
  const SweepConfig cfg = parse_sweep_args(argc, argv);
  const std::vector<int> sizes{40, 60, 80, 100};
  const int max_checkpoints = 8;

  std::printf("=== Fig. 8: efficiency of checkpointing optimization ===\n");
  std::printf("(avg %% FTO reduction of global [15] vs local [27]; "
              "%d instances/size, %d thread(s))\n\n",
              cfg.seeds_per_size, resolve_threads(cfg.threads));
  std::printf("  procs   FTO_local  FTO_global  deviation%%\n");

  Stopwatch watch;
  EvalStats total;
  BenchReport report;
  report.bench = "fig8_checkpoint_opt";
  report.threads = resolve_threads(cfg.threads);
  for (int size : sizes) {
    const Stopwatch size_watch;
    const std::vector<SeedResult> seeds = sweep_seeds<SeedResult>(
        cfg.seeds_per_size, cfg.threads, [&](int s) {
          const std::uint64_t seed = 2000ull * static_cast<std::uint64_t>(size) +
                                     static_cast<std::uint64_t>(s);
          // Checkpointing-focused instances: chi/alpha/mu at 10-30% of the
          // WCET (the upper half of the overhead range), where the
          // per-process local optimum of [27] visibly over-checkpoints
          // off-critical processes.
          TaskGenParams params;
          params.process_count = size;
          Rng seeder(seed);
          params.node_count = static_cast<int>(seeder.uniform_int(2, 6));
          params.overhead_min_fraction = 0.10;
          params.overhead_max_fraction = 0.30;
          Instance inst;
          inst.k = static_cast<int>(seeder.uniform_int(3, 7));
          inst.app = generate_application(params, seeder);
          inst.arch = generate_architecture(params);
          const FaultModel fm{inst.k};
          OptimizeOptions opts = bench_options(seed);
          opts.space = PolicySpace::kCheckpointingOnly;
          opts.max_checkpoints = max_checkpoints;

          const Time nft = non_ft_reference(inst.app, inst.arch, opts);

          // Shared mapping (optimized once in the checkpointing space),
          // then the two checkpoint policies on top of it.
          const OptimizeResult mapped =
              optimize_policy_and_mapping(inst.app, inst.arch, fm, opts);

          PolicyAssignment local = mapped.assignment;
          apply_local_checkpointing(inst.app, local, max_checkpoints);
          const Time wcsl_local =
              evaluate_wcsl(inst.app, inst.arch, local, fm).makespan;

          const CheckpointOptResult global = optimize_checkpoints_global(
              inst.app, inst.arch, fm, local, max_checkpoints);

          SeedResult r;
          r.fto_local = fto_percent(wcsl_local, nft);
          r.fto_global = fto_percent(global.wcsl, nft);
          r.deviation = 100.0 * (r.fto_local - r.fto_global) /
                        (r.fto_local > 0 ? r.fto_local : 1.0);
          r.stats = global.eval_stats;
          return r;
        });

    std::vector<double> local_ftos, global_ftos, deviations;
    for (const SeedResult& r : seeds) {
      local_ftos.push_back(r.fto_local);
      global_ftos.push_back(r.fto_global);
      deviations.push_back(r.deviation);
      total.add(r.stats);
    }
    std::printf("  %5d   %8.1f   %9.1f   %9.1f\n", size, mean(local_ftos),
                mean(global_ftos), mean(deviations));

    BenchReport::Entry& entry = report.add("procs_" + std::to_string(size));
    entry.wall_seconds = size_watch.seconds();
    entry.metric("fto_local_pct", mean(local_ftos));
    entry.metric("fto_global_pct", mean(global_ftos));
    entry.metric("deviation_pct", mean(deviations));
  }
  // --- speculative stage execution (--speculate): hide table latency ------
  // Small-k instances where the scenario tree is buildable: run the
  // default pipeline serially and with speculation on the same problems.
  // The adoption counters are deterministic (same seeds, any thread
  // count), so the "speculation:" line is part of the committed golden
  // (tests/golden/fig8_tiny.txt); the wall-clock line below it is
  // filtered like every other volatile line.  The recorded hidden share
  // is the table stage's serial wall time minus what the consuming stage
  // still paid with speculation on -- with refinement dominating and a
  // worker available, that approaches the table stage's full serial share.
  long long spec_hits = 0, spec_misses = 0;
  double serial_table_seconds = 0.0, spec_stage_seconds = 0.0;
  double spec_task_seconds = 0.0;
  const int spec_instances = std::max(2, cfg.seeds_per_size);
  for (int s = 0; s < spec_instances; ++s) {
    const std::uint64_t seed = 9000ull + static_cast<std::uint64_t>(s);
    TaskGenParams params;
    params.process_count = 12;
    Rng seeder(seed);
    params.node_count = static_cast<int>(seeder.uniform_int(2, 3));
    Application app = generate_application(params, seeder);
    Architecture arch = generate_architecture(params);

    SynthesisOptions opts;
    opts.fault_model.k = 2;
    opts.optimize = bench_options(seed);
    opts.optimize.space = PolicySpace::kCheckpointingOnly;
    opts.optimize.threads = cfg.threads;
    opts.schedule.max_scenarios = 500000;

    SynthesisContext serial_ctx(app, arch, opts);
    Pipeline serial = Pipeline::default_pipeline();
    const SynthesisResult serial_result = serial.run(serial_ctx);
    serial_table_seconds += serial.metrics()[2].seconds;

    opts.speculate = true;
    SynthesisContext spec_ctx(app, arch, opts);
    Pipeline spec = Pipeline::default_pipeline();
    const SynthesisResult spec_result = spec.run(spec_ctx);
    spec_hits += spec.metrics()[2].spec_hits;
    spec_misses += spec.metrics()[2].spec_misses;
    spec_stage_seconds += spec.metrics()[2].seconds;
    spec_task_seconds += spec.metrics()[2].spec_seconds;

    if (serial_result.wcsl.makespan != spec_result.wcsl.makespan ||
        serial_result.schedulable != spec_result.schedulable) {
      std::fprintf(stderr,
                   "fig8: speculative run diverged from serial (seed %llu)\n",
                   static_cast<unsigned long long>(seed));
      return 1;
    }
  }
  std::printf("\n  speculation: %lld adopted / %lld discarded over %d "
              "instances (bit-identical to serial, checked)\n",
              spec_hits, spec_misses, spec_instances);
  std::printf("  speculation wall-clock: table stage %.2fs serial vs %.2fs "
              "speculative (task %.2fs overlapped with refinement)\n",
              serial_table_seconds, spec_stage_seconds, spec_task_seconds);
  BenchReport::Entry& spec_entry = report.add("speculation");
  spec_entry.wall_seconds = spec_stage_seconds;
  spec_entry.metric("spec_hits", static_cast<double>(spec_hits));
  spec_entry.metric("spec_misses", static_cast<double>(spec_misses));
  spec_entry.metric("table_stage_serial_seconds", serial_table_seconds);
  spec_entry.metric("table_stage_speculative_seconds", spec_stage_seconds);
  spec_entry.metric("hidden_seconds",
                    serial_table_seconds - spec_stage_seconds);

  std::printf("\n  (paper's Fig. 8 reports deviations up to ~40%%, larger "
              "deviation = smaller overhead)\n");
  std::printf("  incremental evaluator: %lld evaluations\n",
              total.evaluations);
  std::printf("  list scheduler: %.1f%% of candidate placements resumed; "
              "%lld of %lld rebases served by the winning-move cache\n",
              100.0 * total.ls_resume_fraction(), total.rebase_cache_hits,
              total.rebases);
  const double seconds = watch.seconds();
  std::printf("  wall-clock: %.2fs\n", seconds);

  if (cfg.bench_json) {
    add_total_entry(report, total, seconds);
    report.write(cfg.bench_json);
  }
  return 0;
}
