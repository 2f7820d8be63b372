#include "opt/policy_assignment.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/recovery.h"
#include "opt/eval_context.h"
#include "opt/search_engine.h"
#include "sched/wcsl.h"
#include "util/logging.h"
#include "util/random.h"

namespace ftes {

namespace {

/// Nodes a process may run on, in id order.
std::vector<NodeId> allowed_nodes(const Process& p, const Architecture& arch) {
  std::vector<NodeId> nodes;
  for (NodeId n : arch.node_ids()) {
    if (p.can_run_on(n)) nodes.push_back(n);
  }
  return nodes;
}

int local_opt_checkpoints(const Process& p, NodeId node, int k,
                          int max_checkpoints) {
  RecoveryParams params{p.wcet_on(node), p.alpha, p.mu, p.chi};
  return optimal_checkpoints_local(params, k, max_checkpoints);
}

/// Places the copies of a replication/hybrid plan round-robin over the
/// least-loaded allowed nodes.
void place_copies(ProcessPlan& plan, const std::vector<NodeId>& allowed,
                  std::vector<Time>& load, const Process& proc) {
  // Sort allowed nodes by current load (stable on id for determinism).
  std::vector<NodeId> order = allowed;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const Time la = load[static_cast<std::size_t>(a.get())];
    const Time lb = load[static_cast<std::size_t>(b.get())];
    if (la != lb) return la < lb;
    return a.get() < b.get();
  });
  for (std::size_t j = 0; j < plan.copies.size(); ++j) {
    const NodeId n = order[j % order.size()];
    plan.copies[j].node = n;
    load[static_cast<std::size_t>(n.get())] += proc.wcet_on(n);
  }
}

ProcessPlan initial_plan(const Process& proc, const Architecture& arch,
                         const FaultModel& model, PolicySpace space,
                         int max_checkpoints, std::vector<Time>& load) {
  const std::vector<NodeId> allowed = allowed_nodes(proc, arch);
  ProcessPlan plan;
  switch (space) {
    case PolicySpace::kReexecutionOnly:
      plan = make_checkpointing_plan(model.k, 1);
      break;
    case PolicySpace::kCheckpointingOnly:
    case PolicySpace::kFull:
      plan = make_checkpointing_plan(model.k, 1);
      break;
    case PolicySpace::kReplicationOnly:
      plan = make_replication_plan(model.k);
      break;
  }
  // Designer-fixed policy kinds override the space's default shape.
  if (proc.fixed_policy) {
    switch (*proc.fixed_policy) {
      case PolicyKind::kCheckpointing:
        plan = make_checkpointing_plan(model.k, 1);
        break;
      case PolicyKind::kReplication:
        plan = make_replication_plan(model.k);
        break;
      case PolicyKind::kReplicationAndCheckpointing:
        plan = model.k >= 2 ? make_hybrid_plan(model.k, 1, 1)
                            : make_checkpointing_plan(model.k, 1);
        break;
    }
  }
  if (proc.fixed_mapping) {
    plan.copies[0].node = *proc.fixed_mapping;
    load[static_cast<std::size_t>(proc.fixed_mapping->get())] +=
        proc.wcet_on(*proc.fixed_mapping);
    if (plan.copy_count() > 1) {
      ProcessPlan rest = plan;
      rest.copies.erase(rest.copies.begin());
      place_copies(rest, allowed, load, proc);
      for (int j = 1; j < plan.copy_count(); ++j) {
        plan.copies[static_cast<std::size_t>(j)] =
            rest.copies[static_cast<std::size_t>(j - 1)];
      }
    }
  } else {
    place_copies(plan, allowed, load, proc);
  }
  if (space != PolicySpace::kReexecutionOnly &&
      space != PolicySpace::kReplicationOnly) {
    for (CopyPlan& c : plan.copies) {
      if (c.checkpoints >= 1) {
        c.checkpoints = local_opt_checkpoints(proc, c.node, c.recoveries,
                                              max_checkpoints);
      }
    }
  }
  return plan;
}

/// Neighborhood + objective of the mapping + FT policy assignment tabu
/// search: the three move families of Section 6 (remap a copy, switch the
/// policy kind, adjust a checkpoint count), judged by the WCSL analysis
/// plus soft local-deadline penalties.
class PolicyAssignmentProblem final : public SearchProblem {
 public:
  // Move encoding for the tabu list: (family, process, a, b).
  enum MoveFamily { kRemap = 0, kPolicy = 1, kCheckpoint = 2 };

  PolicyAssignmentProblem(const Application& app, const Architecture& arch,
                          const FaultModel& model, EvalContext& eval,
                          const OptimizeOptions& options)
      : app_(app),
        arch_(arch),
        model_(model),
        eval_(eval),
        options_(options),
        rng_(options.seed) {}

  bool neighborhood(int /*iteration*/, const PolicyAssignment& current,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    for (int s = 0; s < options_.neighborhood; ++s) {
      TabuList::Key key{};
      const ProcessId pid{
          static_cast<std::int32_t>(rng_.index(
              static_cast<std::size_t>(app_.process_count())))};
      const Process& proc = app_.process(pid);
      ProcessPlan plan = current.plan(pid);
      const std::vector<NodeId> allowed = allowed_nodes(proc, arch_);

      // Pick an applicable move family.
      std::vector<int> families;
      if (allowed.size() > 1) {
        families.push_back(kRemap);
      }
      if (options_.space == PolicySpace::kFull && !proc.fixed_policy) {
        families.push_back(kPolicy);
      }
      if (options_.optimize_checkpoints &&
          options_.space != PolicySpace::kReexecutionOnly &&
          options_.space != PolicySpace::kReplicationOnly) {
        families.push_back(kCheckpoint);
      }
      if (families.empty()) continue;
      const int family = families[rng_.index(families.size())];

      if (family == kRemap) {
        const int copy = static_cast<int>(rng_.index(plan.copies.size()));
        if (copy == 0 && proc.fixed_mapping) continue;
        CopyPlan& cp = plan.copies[static_cast<std::size_t>(copy)];
        const NodeId to = allowed[rng_.index(allowed.size())];
        if (to == cp.node) continue;
        cp.node = to;
        if (cp.checkpoints >= 1 && options_.optimize_checkpoints) {
          cp.checkpoints = local_opt_checkpoints(proc, to, cp.recoveries,
                                                 options_.max_checkpoints);
        }
        key = {kRemap, pid.get(), copy, to.get()};
      } else if (family == kPolicy) {
        // Switch between checkpointing / replication / hybrid.
        const NodeId home = plan.copies[0].node;
        int choice =
            static_cast<int>(rng_.uniform_int(0, model_.k >= 2 ? 2 : 1));
        if (choice == 0 && plan.kind == PolicyKind::kCheckpointing) choice = 1;
        if (choice == 1 && plan.kind == PolicyKind::kReplication) choice = 0;
        if (choice == 0) {
          plan = make_checkpointing_plan(model_.k, 1);
          plan.copies[0].node = home;
          if (options_.optimize_checkpoints) {
            plan.copies[0].checkpoints = local_opt_checkpoints(
                proc, home, model_.k, options_.max_checkpoints);
          }
        } else if (choice == 1) {
          plan = make_replication_plan(model_.k);
          plan.copies[0].node = home;
          for (int j = 1; j < plan.copy_count(); ++j) {
            plan.copies[static_cast<std::size_t>(j)].node =
                allowed[rng_.index(allowed.size())];
          }
        } else {
          const int q = static_cast<int>(rng_.uniform_int(1, model_.k - 1));
          plan = make_hybrid_plan(model_.k, q, 1);
          plan.copies[0].node = home;
          if (options_.optimize_checkpoints) {
            plan.copies[0].checkpoints = local_opt_checkpoints(
                proc, home, plan.copies[0].recoveries,
                options_.max_checkpoints);
          }
          for (int j = 1; j < plan.copy_count(); ++j) {
            plan.copies[static_cast<std::size_t>(j)].node =
                allowed[rng_.index(allowed.size())];
          }
        }
        if (proc.fixed_mapping) plan.copies[0].node = *proc.fixed_mapping;
        key = {kPolicy, pid.get(), static_cast<int>(plan.kind),
               plan.copy_count()};
      } else {
        // Checkpoint count +-1 on a checkpointed copy.
        std::vector<int> checkpointed;
        for (int j = 0; j < plan.copy_count(); ++j) {
          if (plan.copies[static_cast<std::size_t>(j)].checkpoints >= 1) {
            checkpointed.push_back(j);
          }
        }
        if (checkpointed.empty()) continue;
        const int copy = checkpointed[rng_.index(checkpointed.size())];
        CopyPlan& cp = plan.copies[static_cast<std::size_t>(copy)];
        const int delta = rng_.chance(0.5) ? 1 : -1;
        const int next =
            std::clamp(cp.checkpoints + delta, 1, options_.max_checkpoints);
        if (next == cp.checkpoints) continue;
        cp.checkpoints = next;
        key = {kCheckpoint, pid.get(), copy, next};
      }

      out.push_back(Move{pid, std::move(plan), key});
    }
    return true;
  }

  Time evaluate(const Move& move) override {
    return eval_.evaluate_move(move.pid, move.plan).cost;
  }

  Time commit(const PolicyAssignment& current) override {
    eval_.rebase(current);
    return eval_.evaluate_base().cost;
  }

  void accept(const PolicyAssignment& current) override {
    eval_.rebase(current);
  }

 private:
  const Application& app_;
  const Architecture& arch_;
  const FaultModel& model_;
  EvalContext& eval_;
  const OptimizeOptions& options_;
  Rng rng_;
};

}  // namespace

PolicyAssignment greedy_initial(const Application& app,
                                const Architecture& arch,
                                const FaultModel& model, PolicySpace space,
                                int max_checkpoints) {
  PolicyAssignment pa(app.process_count());
  std::vector<Time> load(static_cast<std::size_t>(arch.node_count()), 0);
  for (ProcessId pid : app.topological_order()) {
    pa.plan(pid) = initial_plan(app.process(pid), arch, model, space,
                                max_checkpoints, load);
  }
  return pa;
}

Time assignment_cost(const Application& app, const Architecture& arch,
                     const PolicyAssignment& assignment,
                     const FaultModel& model) {
  const WcslResult wcsl = evaluate_wcsl(app, arch, assignment, model);
  return penalized_cost(app, wcsl.process_finish, wcsl.makespan);
}

Time penalized_cost(const Application& app,
                    const std::vector<Time>& process_finish, Time makespan) {
  Time cost = makespan;
  for (int i = 0; i < app.process_count(); ++i) {
    const Process& p = app.process(ProcessId{i});
    if (p.local_deadline) {
      const Time miss =
          process_finish[static_cast<std::size_t>(i)] - *p.local_deadline;
      if (miss > 0) cost += 10 * miss;
    }
  }
  return cost;
}

OptimizeResult optimize_policy_and_mapping(const Application& app,
                                           const Architecture& arch,
                                           const FaultModel& model,
                                           const OptimizeOptions& options) {
  return optimize_from(
      app, arch, model, options,
      greedy_initial(app, arch, model, options.space, options.max_checkpoints));
}

OptimizeResult optimize_from(const Application& app, const Architecture& arch,
                             const FaultModel& model,
                             const OptimizeOptions& options,
                             PolicyAssignment initial) {
  model.validate();
  initial.validate(app, model);
  std::unique_ptr<EvalContext> owned_eval;
  EvalContext* eval = options.eval;
  if (!eval) {
    owned_eval = std::make_unique<EvalContext>(app, arch, model,
                                               options.verify_every);
    eval = owned_eval.get();
  }
  const EvalStats stats_before = eval->stats();

  PolicyAssignmentProblem problem(app, arch, model, *eval, options);
  SearchOptions search;
  // Non-positive budgets historically ran zero iterations, never forever.
  search.max_iterations = std::max(0, options.iterations);
  search.tenure = options.tenure;
  search.threads = options.threads;
  search.pool = options.pool;
  search.cancel = options.cancel;
  SearchResult found =
      neighborhood_search(problem, std::move(initial), search);

  OptimizeResult result;
  result.assignment = std::move(found.best);
  const WcslResult wcsl = eval->evaluate_full(result.assignment);
  result.wcsl = wcsl.makespan;
  result.schedulable = wcsl.meets_deadlines(app);
  result.evaluations = found.stats.evaluations;
  result.search_stats = found.stats;
  result.eval_stats = eval->stats().since(stats_before);
  return result;
}

}  // namespace ftes
