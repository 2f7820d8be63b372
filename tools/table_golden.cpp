// table_golden -- content hashes of conditional schedule tables.
//
// Builds the conditional schedule tables (sched/cond_scheduler.h) of a
// fixed set of generated instances, validates them with
// check_all_scenarios, and prints one line per instance:
//
//   <name> scenarios=<n> entries=<n> hash=<16 hex digits>
//
// The hash is a 64-bit FNV-1a over the tables' text rendering, their JSON
// export, the pinned frozen starts, the validation's violation list and
// every scenario's trace (each copy's start, end, fate and attempt starts;
// each bus transmission's ready, start and finish; the reveals; the
// makespan), so a changed table byte, frozen pin, finding or simulated
// time shows up as a diff against the committed tests/golden/tables.txt.
// The output is identical for every --threads value.
//
// The instances: the serve workload's six fresh-job shapes (10-30
// processes, k <= 2) on 2-4 nodes, two with frozen processes and messages
// (the frozen-start fixpoint), one with replicated and hybrid plans, and
// one 160-process k = 1 instance of the scale-family shape.  Policies come
// from greedy_initial, so the tables depend on the table builder alone,
// not on the search.  Each instance is built three times: with the default
// options, with condition broadcasts off (`<name>/no_broadcasts`) and with
// transparency ignored (`<name>/no_transparency`).
//
// --scale500 instead runs the scale500 family (gen/taskgen.h) at k = 1
// with the greedy re-execution assignment through conditional_schedule,
// check_all_scenarios and a 20-trial fuzz.  It prints the instance's hash
// line and its deadline-miss counts, and exits 1 if the validation or the
// fuzz finds a violation of any other kind (the family is not schedulable
// on two nodes, so every scenario misses the deadline).
//
// --search instead runs the default pipeline (core/pipeline.h) on the
// scale500, scale750 and scale1000 families at k = 1: 20 tabu iterations,
// seed 2008, tables off.  Per family it prints the final WCSL, an FNV-1a
// hash of the assignment's summary and the evaluator's work counters, on
// one line (wrapped here):
//
//   <name> wcsl=<n> assignment=<16 hex digits> evaluations=<n>
//     rebases=<n> events=<n> events_resumed=<n> heap_pops=<n>
//
// --verify-every n shadow-verifies every n-th move evaluation
// (opt/eval_context.h) and adds a `shadow verification:` line per family.
//
// Usage:
//   table_golden [--threads n] [--scale500 | --search [--verify-every n]]
//
// Exit status: 0 done, 1 a --scale500 violation other than a deadline
// miss or a --search verification mismatch, 2 usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "gen/taskgen.h"
#include "opt/policy_assignment.h"
#include "sched/cond_scheduler.h"
#include "sched/table_export.h"
#include "sim/executor.h"
#include "sim/fuzzer.h"

using namespace ftes;

namespace {

struct Instance {
  std::string name;
  Application app;
  Architecture arch;
  FaultModel model;
  PolicyAssignment assignment;
};

Instance generate(std::string name, const TaskGenParams& params, int k,
                  std::uint64_t seed, PolicySpace space,
                  int max_checkpoints) {
  Instance inst;
  inst.name = std::move(name);
  Rng rng(seed);
  inst.app = generate_application(params, rng);
  inst.arch = generate_architecture(params);
  inst.model.k = k;
  inst.assignment =
      greedy_initial(inst.app, inst.arch, inst.model, space, max_checkpoints);
  return inst;
}

/// Every third process becomes k + 1 replicas and every fifth of the rest
/// a hybrid of two copies, placed round-robin over the allowed nodes.
void add_replicas(Instance& inst) {
  for (int i = 0; i < inst.app.process_count(); ++i) {
    const Process& proc = inst.app.process(ProcessId{i});
    if (proc.fixed_policy || proc.fixed_mapping) continue;
    ProcessPlan plan;
    if (i % 3 == 0) {
      plan = make_replication_plan(inst.model.k);
    } else if (i % 5 == 0) {
      plan = make_hybrid_plan(inst.model.k, 1, 2);
    } else {
      continue;
    }
    std::vector<NodeId> allowed;
    for (NodeId n : inst.arch.node_ids()) {
      if (proc.can_run_on(n)) allowed.push_back(n);
    }
    for (std::size_t j = 0; j < plan.copies.size(); ++j) {
      plan.copies[j].node = allowed[j % allowed.size()];
    }
    inst.assignment.plan(ProcessId{i}) = plan;
  }
}

std::vector<Instance> golden_instances() {
  std::vector<Instance> out;
  struct Shape {
    int processes, k;
  };
  // The serve workload's fresh-job shapes (perfbench/src/workloads.cpp).
  const Shape shapes[] = {{10, 1}, {20, 2}, {10, 2},
                          {25, 1}, {12, 1}, {30, 1}};
  for (int f = 0; f < 6; ++f) {
    TaskGenParams params;
    params.process_count = shapes[f].processes;
    params.node_count = 2 + f % 3;
    params.deadline_factor = 12.0;
    out.push_back(generate(
        "serve_p" + std::to_string(params.process_count) + "_n" +
            std::to_string(params.node_count) + "_k" +
            std::to_string(shapes[f].k),
        params, shapes[f].k, 1000 + static_cast<std::uint64_t>(f),
        PolicySpace::kCheckpointingOnly, 4));
  }
  {
    TaskGenParams params;
    params.process_count = 12;
    params.node_count = 2;
    params.frozen_process_fraction = 0.25;
    params.frozen_message_fraction = 0.25;
    out.push_back(generate("frozen_p12_n2_k2", params, 2, 2001,
                           PolicySpace::kCheckpointingOnly, 3));
  }
  {
    TaskGenParams params;
    params.process_count = 16;
    params.node_count = 3;
    params.frozen_process_fraction = 0.3;
    params.frozen_message_fraction = 0.3;
    out.push_back(generate("frozen_p16_n3_k1", params, 1, 2002,
                           PolicySpace::kReexecutionOnly, 1));
  }
  {
    TaskGenParams params;
    params.process_count = 14;
    params.node_count = 3;
    out.push_back(generate("replicas_p14_n3_k2", params, 2, 2003,
                           PolicySpace::kCheckpointingOnly, 3));
    add_replicas(out.back());
  }
  out.push_back(generate("scale160_n3_k1", scale_family_params(160, 3), 1,
                         2004, PolicySpace::kReexecutionOnly, 1));
  return out;
}

class Fnv1a {
 public:
  void add(const std::string& bytes) {
    for (unsigned char c : bytes) {
      h_ ^= c;
      h_ *= 0x100000001b3ull;
    }
  }
  /// The eight bytes of `v`, least significant first.
  void add_int(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int shift = 0; shift < 64; shift += 8) {
      h_ ^= (u >> shift) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

struct Built {
  CondScheduleResult schedule;
  ExecutionReport report;
  std::string line;
};

void add_trace(Fnv1a& h, const ScenarioTrace& tr) {
  h.add_int(static_cast<std::int64_t>(tr.scenario.hits().size()));
  for (const auto& [ref, count] : tr.scenario.hits()) {
    h.add_int(ref.process.get());
    h.add_int(ref.copy);
    h.add_int(count);
  }
  h.add_int(static_cast<std::int64_t>(tr.execs.size()));
  for (const ExecTrace& e : tr.execs) {
    h.add_int(e.copy.process.get());
    h.add_int(e.copy.copy);
    h.add_int(e.start);
    h.add_int(e.end);
    h.add_int(e.died ? 1 : 0);
    h.add_int(e.faults);
    h.add_int(static_cast<std::int64_t>(e.attempt_starts.size()));
    for (Time t : e.attempt_starts) h.add_int(t);
  }
  h.add_int(static_cast<std::int64_t>(tr.txs.size()));
  for (const TxTrace& tx : tr.txs) {
    h.add_int(tx.is_condition ? 1 : 0);
    h.add_int(tx.msg.get());
    h.add_int(tx.src_copy);
    h.add_int(tx.cond_id);
    h.add_int(tx.value ? 1 : 0);
    h.add_int(tx.sender.get());
    h.add_int(tx.ready);
    h.add_int(tx.start);
    h.add_int(tx.finish);
  }
  h.add_int(static_cast<std::int64_t>(tr.reveals.size()));
  for (const Reveal& r : tr.reveals) {
    h.add_int(r.cond_id);
    h.add_int(r.value ? 1 : 0);
    h.add_int(r.at);
  }
  h.add_int(tr.makespan);
}

Built build(const Instance& inst, int threads,
            const CondScheduleOptions& options = {}) {
  Built b;
  CondScheduleOptions opts = options;
  opts.threads = threads;
  b.schedule = conditional_schedule(inst.app, inst.arch, inst.assignment,
                                    inst.model, opts);
  ExecCheckOptions check;
  check.threads = threads;
  b.report = check_all_scenarios(inst.app, inst.assignment, b.schedule, check);
  Fnv1a h;
  h.add(b.schedule.tables.to_text(inst.arch));
  h.add(tables_to_json(b.schedule.tables, inst.arch));
  for (const auto& [name, start] : b.schedule.frozen_starts) {
    h.add(name + "=" + std::to_string(start) + "\n");
  }
  for (const std::string& v : b.report.violations) h.add(v + "\n");
  for (const ScenarioTrace& tr : b.schedule.traces) add_trace(h, tr);
  b.line = inst.name + " scenarios=" +
           std::to_string(b.schedule.scenario_count) + " entries=" +
           std::to_string(b.schedule.tables.total_entries()) + " hash=" +
           h.hex();
  return b;
}

bool is_deadline_miss(const std::string& violation) {
  return violation.rfind("deadline missed", 0) == 0 ||
         violation.find(" misses its local deadline") != std::string::npos;
}

int run_scale500(int threads) {
  const ScaleFamily family = scale_families().front();
  const Instance inst = generate(family.name, family.params, 1, 2008,
                                 PolicySpace::kReexecutionOnly, 1);
  const Built b = build(inst, threads);
  int failures = 0;
  long long check_misses = 0;
  for (const std::string& v : b.report.violations) {
    if (is_deadline_miss(v)) {
      ++check_misses;
    } else if (failures++ < 5) {
      std::fprintf(stderr, "table_golden: %s\n", v.c_str());
    }
  }
  const ScheduleFuzzer fuzzer(inst.app, inst.arch, inst.assignment,
                              inst.model, b.schedule);
  FuzzOptions fuzz;
  fuzz.trials = 20;
  fuzz.seed = 1;
  fuzz.threads = threads;
  fuzz.shrink = false;
  const FuzzReport report = fuzzer.fuzz(fuzz);
  long long fuzz_misses = 0;
  for (const auto& [kind, count] : report.violations_by_kind) {
    if (kind == to_string(FuzzKind::kDeadlineMiss)) {
      fuzz_misses = count;
    } else if (count > 0) {
      ++failures;
      std::fprintf(stderr, "table_golden: fuzz found %lld %s\n", count,
                   kind.c_str());
    }
  }
  std::printf("%s\n", b.line.c_str());
  std::printf("%s deadline misses: %lld of %d scenarios, %lld in %lld fuzz "
              "trials\n",
              inst.name.c_str(), check_misses, b.schedule.scenario_count,
              fuzz_misses, report.trials);
  return failures == 0 ? 0 : 1;
}

int run_search(int threads, int verify_every) {
  long long mismatches = 0;
  for (const ScaleFamily& family : scale_families()) {
    Rng rng(2008);
    Application app = generate_application(family.params, rng);
    Architecture arch = generate_architecture(family.params);
    SynthesisOptions options;
    options.fault_model.k = 1;
    options.optimize.iterations = 20;
    options.optimize.seed = 2008;
    options.optimize.threads = threads;
    options.optimize.verify_every = verify_every;
    options.build_schedule_tables = false;
    SynthesisContext ctx(std::move(app), std::move(arch), options);
    const SynthesisResult result = Pipeline::default_pipeline().run(ctx);
    const EvalStats stats = ctx.eval().stats();
    Fnv1a h;
    h.add(result.assignment.summary(ctx.app()));
    std::printf("%s wcsl=%lld assignment=%s evaluations=%lld rebases=%lld "
                "events=%lld events_resumed=%lld heap_pops=%lld\n",
                family.name, static_cast<long long>(result.wcsl.makespan),
                h.hex().c_str(), stats.evaluations, stats.rebases,
                stats.ls_events_total, stats.ls_events_resumed,
                stats.heap_pops);
    if (verify_every > 0) {
      std::printf("%s shadow verification: every %d move evaluation(s), "
                  "%lld mismatches\n",
                  family.name, verify_every, stats.verify_mismatches);
    }
    mismatches += stats.verify_mismatches;
  }
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 1;
  int verify_every = 0;
  bool scale500 = false;
  bool search = false;
  bool known = true;
  for (int i = 1; known && i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threads" && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else if (arg == "--verify-every" && i + 1 < argc) {
      verify_every = std::atoi(argv[++i]);
    } else if (arg == "--scale500") {
      scale500 = true;
    } else if (arg == "--search") {
      search = true;
    } else {
      known = false;
    }
  }
  if (!known || (scale500 && search) || verify_every < 0 ||
      (verify_every > 0 && !search)) {
    std::fprintf(stderr,
                 "usage: table_golden [--threads n] "
                 "[--scale500 | --search [--verify-every n]]\n");
    return 2;
  }
  if (scale500) return run_scale500(threads);
  if (search) return run_search(threads, verify_every);
  CondScheduleOptions no_broadcasts;
  no_broadcasts.schedule_condition_broadcasts = false;
  CondScheduleOptions no_transparency;
  no_transparency.respect_transparency = false;
  for (Instance& inst : golden_instances()) {
    std::printf("%s\n", build(inst, threads).line.c_str());
    const std::string name = inst.name;
    inst.name = name + "/no_broadcasts";
    std::printf("%s\n", build(inst, threads, no_broadcasts).line.c_str());
    inst.name = name + "/no_transparency";
    std::printf("%s\n", build(inst, threads, no_transparency).line.c_str());
  }
  return 0;
}
