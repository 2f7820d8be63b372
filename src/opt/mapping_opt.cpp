#include "opt/mapping_opt.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "opt/eval_context.h"
#include "opt/search_engine.h"
#include "sched/list_scheduler.h"
#include "util/random.h"

namespace ftes {

namespace {

PolicyAssignment bare_greedy(const Application& app,
                             const Architecture& arch) {
  PolicyAssignment pa(app.process_count());
  std::vector<Time> load(static_cast<std::size_t>(arch.node_count()), 0);
  for (ProcessId pid : app.topological_order()) {
    const Process& proc = app.process(pid);
    ProcessPlan plan;
    plan.kind = PolicyKind::kCheckpointing;
    CopyPlan copy;  // no checkpoints / recoveries: plain execution
    if (proc.fixed_mapping) {
      copy.node = *proc.fixed_mapping;
    } else {
      Time best = kTimeInfinity;
      for (NodeId n : arch.node_ids()) {
        if (!proc.can_run_on(n)) continue;
        const Time finish = load[static_cast<std::size_t>(n.get())] +
                            proc.wcet_on(n);
        if (finish < best) {
          best = finish;
          copy.node = n;
        }
      }
    }
    load[static_cast<std::size_t>(copy.node.get())] += proc.wcet_on(copy.node);
    plan.copies.push_back(copy);
    pa.plan(pid) = plan;
  }
  return pa;
}

/// Neighborhood + objective of the FT-ignorant mapping search: sampled
/// remap moves on copy 0, judged by the fault-free list-schedule makespan.
class MappingProblem final : public SearchProblem {
 public:
  MappingProblem(const Application& app, const Architecture& arch,
                 EvalContext& eval, const MappingOptOptions& options)
      : app_(app),
        arch_(arch),
        eval_(eval),
        rng_(options.seed),
        neighborhood_(options.neighborhood) {}

  bool neighborhood(int /*iteration*/, const PolicyAssignment& current,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    for (int s = 0; s < neighborhood_; ++s) {
      const ProcessId pid{static_cast<std::int32_t>(
          rng_.index(static_cast<std::size_t>(app_.process_count())))};
      const Process& proc = app_.process(pid);
      if (proc.fixed_mapping || proc.wcet.size() < 2) continue;
      std::vector<NodeId> allowed;
      for (NodeId n : arch_.node_ids()) {
        if (proc.can_run_on(n)) allowed.push_back(n);
      }
      ProcessPlan plan = current.plan(pid);
      const NodeId to = allowed[rng_.index(allowed.size())];
      if (to == plan.copies[0].node) continue;
      plan.copies[0].node = to;
      out.push_back(
          Move{pid, std::move(plan), TabuList::Key{0, pid.get(), 0, to.get()}});
    }
    return true;
  }

  Time evaluate(const Move& move) override {
    return eval_.fault_free_makespan(move.pid, move.plan);
  }

  Time commit(const PolicyAssignment& current) override {
    // Rebasing builds the base schedule + checkpoint log (so candidate
    // moves resume instead of rescheduling from scratch) and reports its
    // makespan.
    return eval_.rebase_fault_free(current);
  }

 private:
  const Application& app_;
  const Architecture& arch_;
  EvalContext& eval_;
  Rng rng_;
  int neighborhood_;
};

}  // namespace

MappingOptResult optimize_mapping_no_ft(const Application& app,
                                        const Architecture& arch,
                                        const MappingOptOptions& options) {
  // Fault-free objective: the evaluator only rebuilds list schedules, so
  // the fault model is irrelevant (k = 0 keeps validation happy).
  EvalContext eval(app, arch, FaultModel{0});
  MappingProblem problem(app, arch, eval, options);

  SearchOptions search;
  // Non-positive budgets historically ran zero iterations, never forever.
  search.max_iterations = std::max(0, options.iterations);
  search.tenure = options.tenure;
  search.threads = options.threads;
  search.pool = options.pool;
  search.cancel = options.cancel;
  SearchResult found =
      neighborhood_search(problem, bare_greedy(app, arch), search);

  MappingOptResult result;
  result.assignment = std::move(found.best);
  result.makespan = found.best_cost;
  result.evaluations = found.stats.evaluations;
  result.search_stats = found.stats;
  result.eval_stats = eval.stats();
  return result;
}

}  // namespace ftes
