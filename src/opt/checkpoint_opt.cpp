#include "opt/checkpoint_opt.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/recovery.h"
#include "opt/eval_context.h"
#include "opt/search_engine.h"
#include "sched/wcsl.h"

namespace ftes {

void apply_local_checkpointing(const Application& app,
                               PolicyAssignment& assignment,
                               int max_checkpoints) {
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    const Process& proc = app.process(pid);
    for (CopyPlan& copy : assignment.plan(pid).copies) {
      if (copy.checkpoints < 1) continue;
      copy.checkpoints = optimal_checkpoints_local(
          CopyRecovery::of(proc, copy).params, copy.recoveries,
          max_checkpoints);
    }
  }
}

namespace {

/// (process, copy) pairs that carry checkpoints.
std::vector<std::pair<ProcessId, int>> checkpointed_copies(
    const Application& app, const PolicyAssignment& pa) {
  std::vector<std::pair<ProcessId, int>> result;
  for (int i = 0; i < app.process_count(); ++i) {
    const ProcessId pid{i};
    const ProcessPlan& plan = pa.plan(pid);
    for (int j = 0; j < plan.copy_count(); ++j) {
      if (plan.copies[static_cast<std::size_t>(j)].checkpoints >= 1) {
        result.emplace_back(pid, j);
      }
    }
  }
  return result;
}

/// Full sweeps over the targets before the descent stops regardless.
constexpr int kMaxRounds = 8;

/// Coordinate descent over checkpoint counts as a neighborhood problem:
/// each engine iteration is one target (process, copy); its neighborhood
/// is the candidate counts X-2 / X-1 / X+1 / X+2 / 1 ("no intermediate
/// checkpoints" -- off-critical processes often want n = 1 to shed the
/// n*chi overhead entirely, which +-1 steps reach only through a cost
/// plateau), judged by the WCSL makespan.  The generator carries the sweep
/// state (round, target cursor, improved flag) and stops the engine when a
/// full sweep makes no progress or kMaxRounds is exhausted; the engine's
/// require_improvement acceptance keeps only strict improvements
/// (earliest candidate on ties), exactly the historical descent.
class CheckpointDescentProblem final : public SearchProblem {
 public:
  CheckpointDescentProblem(EvalContext& eval,
                           std::vector<std::pair<ProcessId, int>> targets,
                           int max_checkpoints)
      : eval_(eval),
        targets_(std::move(targets)),
        max_checkpoints_(max_checkpoints) {}

  bool neighborhood(int /*iteration*/, const PolicyAssignment& current,
                    bool accepted_last, std::vector<Move>& out) override {
    improved_ = improved_ || accepted_last;
    while (true) {
      if (next_target_ == targets_.size()) {  // sweep boundary
        if (!improved_ || round_ + 1 >= kMaxRounds) return false;
        ++round_;
        next_target_ = 0;
        improved_ = false;
      }
      const auto& [pid, j] = targets_[next_target_++];
      const ProcessPlan& plan = current.plan(pid);
      const int count = plan.copies[static_cast<std::size_t>(j)].checkpoints;
      counts_.clear();
      for (int next : {count - 2, count - 1, count + 1, count + 2, 1}) {
        if (next < 1 || next > max_checkpoints_ || next == count ||
            std::find(counts_.begin(), counts_.end(), next) !=
                counts_.end()) {
          continue;
        }
        counts_.push_back(next);
      }
      if (counts_.empty()) continue;  // clamped target: straight to the next
      for (int next : counts_) {
        ProcessPlan moved = plan;
        moved.copies[static_cast<std::size_t>(j)].checkpoints = next;
        out.push_back(Move{pid, std::move(moved),
                           TabuList::Key{2, pid.get(), j, next}});
      }
      return true;
    }
  }

  Time evaluate(const Move& move) override {
    return eval_.evaluate_move(move.pid, move.plan).makespan;
  }

  Time commit(const PolicyAssignment& current) override {
    eval_.rebase(current);
    return eval_.evaluate_base().makespan;
  }

  void accept(const PolicyAssignment& current) override {
    eval_.rebase(current);
  }

 private:
  EvalContext& eval_;
  std::vector<std::pair<ProcessId, int>> targets_;
  int max_checkpoints_;
  std::size_t next_target_ = 0;
  int round_ = 0;
  bool improved_ = false;
  std::vector<int> counts_;
};

}  // namespace

CheckpointOptResult optimize_checkpoints_global(
    const Application& app, const Architecture& arch, const FaultModel& model,
    PolicyAssignment initial, const CheckpointOptOptions& options) {
  std::unique_ptr<EvalContext> owned_eval;
  EvalContext* eval = options.eval;
  if (!eval) {
    owned_eval = std::make_unique<EvalContext>(app, arch, model);
    eval = owned_eval.get();
  }
  const EvalStats stats_before = eval->stats();

  CheckpointDescentProblem problem(*eval, checkpointed_copies(app, initial),
                                   options.max_checkpoints);
  SearchOptions search;
  search.require_improvement = true;  // pure descent, no tabu list
  search.threads = options.threads;
  search.pool = options.pool;
  search.cancel = options.cancel;
  SearchResult found =
      neighborhood_search(problem, std::move(initial), search);

  CheckpointOptResult result;
  result.assignment = std::move(found.best);
  result.wcsl = found.best_cost;
  result.evaluations = found.stats.evaluations;
  result.search_stats = found.stats;
  result.eval_stats = eval->stats().since(stats_before);
  return result;
}

CheckpointOptResult optimize_checkpoints_exact(const Application& app,
                                               const Architecture& arch,
                                               const FaultModel& model,
                                               PolicyAssignment initial,
                                               int max_checkpoints,
                                               std::int64_t max_combinations) {
  const auto targets = checkpointed_copies(app, initial);
  std::int64_t combinations = 1;
  for (std::size_t i = 0; i < targets.size(); ++i) {
    combinations *= max_checkpoints;
    if (combinations > max_combinations) {
      throw std::length_error("exact checkpoint search space too large");
    }
  }

  CheckpointOptResult result;
  result.assignment = initial;
  result.wcsl = evaluate_wcsl(app, arch, result.assignment, model).makespan;
  result.evaluations = 1;

  std::vector<int> counts(targets.size(), 1);
  PolicyAssignment candidate = initial;
  while (true) {
    for (std::size_t i = 0; i < targets.size(); ++i) {
      candidate.plan(targets[i].first)
          .copies[static_cast<std::size_t>(targets[i].second)]
          .checkpoints = counts[i];
    }
    const Time wcsl = evaluate_wcsl(app, arch, candidate, model).makespan;
    ++result.evaluations;
    if (wcsl < result.wcsl) {
      result.wcsl = wcsl;
      result.assignment = candidate;
    }
    // Odometer increment.
    std::size_t pos = 0;
    while (pos < counts.size()) {
      if (++counts[pos] <= max_checkpoints) break;
      counts[pos] = 1;
      ++pos;
    }
    if (pos == counts.size()) break;
    if (counts.empty()) break;
  }
  return result;
}

}  // namespace ftes
