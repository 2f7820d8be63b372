// Generic neighborhood-search engine behind the Section 6 heuristic family.
//
// The paper's design-space exploration is one search pattern instantiated
// three times -- mapping tabu search (opt/mapping_opt.h), mapping + policy
// tabu search (opt/policy_assignment.h) and checkpoint coordinate descent
// (opt/checkpoint_opt.h) -- and each used to hand-roll the same loop:
// sample a neighborhood serially (the RNG owns the iteration), evaluate
// the candidates in parallel (pure incremental evaluations against a
// cached base), select serially in sample order, accept, rebase.  The
// engine below owns that loop once:
//
//   * Moves are typed: a Move replaces one process's plan wholesale (the
//     (process, plan) encoding of opt/eval_context.h), which covers remap,
//     policy-switch and checkpoint-delta moves alike.
//   * Neighborhood generation is pluggable (SearchProblem::neighborhood);
//     the generator is called serially, so sampling can consume an RNG and
//     carry arbitrary sweep state (the coordinate descent's round/target
//     cursor lives entirely in its generator).
//   * Tabu recency + the classic aspiration-by-objective criterion are
//     shared (opt/tabu.h); tenure = 0 disables them (pure descent).
//   * Candidate evaluation runs `threads` wide but selection is serial in
//     sample order, so the accepted trajectory -- and every counter in
//     SearchStats -- is bit-identical for any thread count.
//   * Cancellation is polled once per iteration and inside every parallel
//     evaluation chunk; a partially evaluated neighborhood is abandoned
//     wholesale (selecting from it would be timing-dependent).
//
// The three optimizers are thin SearchProblem implementations plus their
// public option/result adapters; every future move family or search
// strategy (portfolios, restarts, simulated annealing acceptance) slots in
// as another SearchProblem or another engine option.
#pragma once

#include <vector>

#include "fault/policy.h"
#include "opt/tabu.h"
#include "util/cancellation.h"
#include "util/time_types.h"

namespace ftes {

class ThreadPool;

/// One candidate move: replace process `pid`'s plan with `plan`.  `key` is
/// the move's tabu attribute (ignored when the tabu list is disabled).
struct Move {
  ProcessId pid;
  ProcessPlan plan;
  TabuList::Key key{};
};

/// Counters of one engine run.  All are thread-count invariant.
struct SearchStats {
  /// Objective evaluations: the initial commit plus every candidate of
  /// every completed (non-cancelled) neighborhood.
  int evaluations = 0;
  long long iterations = 0;        ///< neighborhoods sampled
  long long sampled_moves = 0;     ///< candidates generated
  long long accepted_moves = 0;    ///< moves applied to the incumbent
  long long tabu_rejected = 0;     ///< candidates vetoed by tabu recency
  long long aspiration_accepted = 0;  ///< tabu moves admitted by aspiration
  bool cancelled = false;          ///< the run was cut by its token

  void add(const SearchStats& other) {
    evaluations += other.evaluations;
    iterations += other.iterations;
    sampled_moves += other.sampled_moves;
    accepted_moves += other.accepted_moves;
    tabu_rejected += other.tabu_rejected;
    aspiration_accepted += other.aspiration_accepted;
    cancelled = cancelled || other.cancelled;
  }
};

/// A neighborhood + objective definition.  The engine calls neighborhood()
/// and commit() serially; evaluate() must be pure and thread-safe (it runs
/// concurrently over one neighborhood).
class SearchProblem {
 public:
  virtual ~SearchProblem() = default;

  /// Appends the iteration's sampled moves to `out` (cleared by the
  /// engine).  `accepted_last` reports whether the previous iteration
  /// accepted a move (coordinate-descent generators use it to detect
  /// converged sweeps).  Returning false ends the search.  An empty `out`
  /// skips the iteration (it still counts toward max_iterations).
  virtual bool neighborhood(int iteration, const PolicyAssignment& current,
                            bool accepted_last, std::vector<Move>& out) = 0;

  /// Objective of one candidate (lower is better).  Thread-safe.
  [[nodiscard]] virtual Time evaluate(const Move& move) = 0;

  /// Re-anchors incremental state (typically EvalContext::rebase) onto the
  /// incumbent; called once before the first iteration -- the return value
  /// is the incumbent's starting objective -- and after every acceptance
  /// (the engine then keeps the accepted candidate's evaluated objective,
  /// which equals the return value bit-for-bit).
  virtual Time commit(const PolicyAssignment& current) = 0;

  /// Acceptance commit: `current` is the previous incumbent with exactly
  /// `accepted` applied.  Problems backed by an EvalContext override this
  /// to forward the accepted process as a rebase hint (the winning-move
  /// cache lookup's O(P) diff scan per acceptance collapses to O(1)); the
  /// default ignores the hint.
  virtual Time commit_accept(const PolicyAssignment& current,
                             const Move& accepted) {
    (void)accepted;
    return commit(current);
  }
};

struct SearchOptions {
  /// Iteration budget; 0 runs no iterations at all (the start is still
  /// committed and returned), negative runs until the generator stops.
  int max_iterations = -1;
  /// Tabu tenure; 0 disables the tabu list and aspiration entirely.
  int tenure = 0;
  /// Accept only moves strictly better than the incumbent (coordinate
  /// descent / hill climbing); false = best admissible move wins even
  /// uphill (tabu search).
  bool require_improvement = false;
  /// Concurrent candidate evaluations (1 = serial; 0 = all hardware
  /// threads); the result is identical for any value.
  int threads = 1;
  /// Pool supplying the helper threads; nullptr = ThreadPool::shared().
  ThreadPool* pool = nullptr;
  /// Cooperative cancellation: polled per iteration and inside every
  /// parallel evaluation chunk.  nullptr = never cancelled.
  CancellationToken* cancel = nullptr;
};

struct SearchResult {
  PolicyAssignment best;  ///< best accepted incumbent (the start if none)
  Time best_cost = 0;     ///< its objective
  SearchStats stats;
};

/// Runs the sample / evaluate-parallel / select-serial loop to completion
/// (iteration budget, generator stop, or cancellation) and returns the
/// best incumbent visited.
[[nodiscard]] SearchResult neighborhood_search(SearchProblem& problem,
                                               PolicyAssignment initial,
                                               const SearchOptions& options);

}  // namespace ftes
