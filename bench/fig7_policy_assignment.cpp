// Regenerates the paper's Fig. 7: efficiency of the mapping and fault
// tolerance policy assignment approach ([13]).
//
// For applications of 20..100 processes on 2-6 nodes with k = 3..7 faults,
// the fault tolerance overhead FTO = (WCSL_ft - L_nft)/L_nft of four
// approaches is measured:
//   MXR -- mapping + policy assignment (the paper's approach, baseline),
//   MR  -- mapping + replication only,
//   SFX -- FT-ignorant mapping + re-execution,
//   MX  -- mapping + re-execution only,
// and the series reported is each approach's average % deviation of FTO
// from MXR's, measured as (FTO_x - FTO_MXR)/FTO_x * 100 -- "MXR is that
// many percent better" -- which is bounded by 100 exactly like the paper's
// y-axis.  The paper reports MXR on average 77% better than MR and 17.6%
// better than MX; the reproduction target is the ordering MR >> SFX > MX > 0
// with comparable magnitudes (DESIGN.md Section 3).
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "core/metrics.h"
#include "opt/baselines.h"

using namespace ftes;
using namespace ftes::bench;

namespace {

struct SeedResult {
  double mr = 0.0;
  double sfx = 0.0;
  double mx = 0.0;
  EvalStats stats;  ///< evaluator counters over all four approaches
};

}  // namespace

int main(int argc, char** argv) {
  const SweepConfig cfg = parse_sweep_args(argc, argv);
  const std::vector<int> sizes{20, 40, 60, 80, 100};

  std::printf("=== Fig. 7: efficiency of FT policy assignment ===\n");
  std::printf("(avg %% deviation of FTO from MXR; %d instances/size, "
              "%d thread(s))\n\n",
              cfg.seeds_per_size, resolve_threads(cfg.threads));
  std::printf("  procs     MR      SFX     MX\n");

  Stopwatch watch;
  std::vector<double> all_mr, all_sfx, all_mx;
  EvalStats total;
  BenchReport report;
  report.bench = "fig7_policy_assignment";
  report.threads = resolve_threads(cfg.threads);
  for (int size : sizes) {
    const Stopwatch size_watch;
    const std::vector<SeedResult> seeds = sweep_seeds<SeedResult>(
        cfg.seeds_per_size, cfg.threads, [&](int s) {
          const std::uint64_t seed = 1000ull * static_cast<std::uint64_t>(size) +
                                     static_cast<std::uint64_t>(s);
          const Instance inst = make_instance(size, seed);
          const FaultModel fm{inst.k};
          OptimizeOptions opts = bench_options(seed);
          opts.verify_every = cfg.verify_every;

          const Time nft = non_ft_reference(inst.app, inst.arch, opts);
          const OptimizeResult mxr = run_mxr(inst.app, inst.arch, fm, opts);
          const OptimizeResult mr = run_mr(inst.app, inst.arch, fm, opts);
          const OptimizeResult sfx = run_sfx(inst.app, inst.arch, fm, opts);
          const OptimizeResult mx = run_mx(inst.app, inst.arch, fm, opts);
          const double fto_mxr = fto_percent(mxr.wcsl, nft);
          const double fto_mr = fto_percent(mr.wcsl, nft);
          const double fto_sfx = fto_percent(sfx.wcsl, nft);
          const double fto_mx = fto_percent(mx.wcsl, nft);

          // (FTO_x - FTO_MXR)/FTO_x: how much smaller MXR's overhead is.
          auto improvement = [&](double fto_x) {
            return fto_x > 0 ? 100.0 * (fto_x - fto_mxr) / fto_x : 0.0;
          };
          SeedResult r{improvement(fto_mr), improvement(fto_sfx),
                       improvement(fto_mx), EvalStats{}};
          r.stats.add(mxr.eval_stats);
          r.stats.add(mr.eval_stats);
          r.stats.add(sfx.eval_stats);
          r.stats.add(mx.eval_stats);
          return r;
        });

    std::vector<double> dev_mr, dev_sfx, dev_mx;
    EvalStats size_total;
    for (const SeedResult& r : seeds) {
      dev_mr.push_back(r.mr);
      dev_sfx.push_back(r.sfx);
      dev_mx.push_back(r.mx);
      size_total.add(r.stats);
      total.add(r.stats);
    }
    std::printf("  %5d  %6.1f  %6.1f  %6.1f\n", size, mean(dev_mr),
                mean(dev_sfx), mean(dev_mx));
    all_mr.insert(all_mr.end(), dev_mr.begin(), dev_mr.end());
    all_sfx.insert(all_sfx.end(), dev_sfx.begin(), dev_sfx.end());
    all_mx.insert(all_mx.end(), dev_mx.begin(), dev_mx.end());

    BenchReport::Entry& entry =
        report.add("procs_" + std::to_string(size));
    entry.wall_seconds = size_watch.seconds();
    entry.metric("deviation_mr_pct", mean(dev_mr));
    entry.metric("deviation_sfx_pct", mean(dev_sfx));
    entry.metric("deviation_mx_pct", mean(dev_mx));
    const long long schedules =
        size_total.ls_resumes + size_total.ls_full_builds;
    entry.metric("events_per_schedule",
                 schedules > 0
                     ? static_cast<double>(size_total.ls_events_total) /
                           static_cast<double>(schedules)
                     : 0.0);
  }
  std::printf("\n  overall averages: MXR better than MR by %.1f%%, than SFX "
              "by %.1f%%, than MX by %.1f%%\n",
              mean(all_mr), mean(all_sfx), mean(all_mx));
  std::printf("  (paper: 77%% better than MR, 17.6%% better than MX on "
              "average)\n");
  std::printf("\n  incremental evaluator: %lld evaluations (%lld incremental"
              ", %lld fault-free, %lld rebases)\n",
              total.evaluations, total.incremental_evals,
              total.fault_free_evals, total.rebases);
  std::printf("  list scheduler: %lld of %lld candidate schedules resumed; "
              "%lld of %lld placements resumed from the base schedule "
              "(%.1f%%)\n",
              total.ls_resumes, total.ls_resumes + total.ls_full_builds,
              total.ls_events_resumed, total.ls_events_total,
              100.0 * total.ls_resume_fraction());
  if (cfg.verify_every > 0) {
    // Printed only on request, so the golden output stays unchanged.
    std::printf("  shadow verification: every %d move evaluation(s), %lld "
                "mismatches\n",
                cfg.verify_every, total.verify_mismatches);
  }
  const double seconds = watch.seconds();
  std::printf("  wall-clock: %.2fs\n", seconds);

  if (cfg.bench_json) {
    add_total_entry(report, total, seconds);
    report.write(cfg.bench_json);
  }
  return 0;
}
