// Tests of the generic neighborhood-search engine (opt/search_engine.h)
// against scripted toy problems: tabu tenure expiry, the
// aspiration-by-objective criterion, cancellation mid-neighborhood (the
// partially evaluated sample must be abandoned wholesale), coordinate-
// descent acceptance, acceptance without rescoring, and thread-count
// invariance of the accepted trajectory.  The real optimizers' equivalence to their pre-engine
// implementations is pinned elsewhere (goldens + optimizer suites); these
// tests isolate the engine's own contract.
#include "opt/search_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/cancellation.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace ftes {
namespace {

/// One-process assignment whose copy-0 checkpoint count encodes an integer
/// search variable; the engine never validates plans, so no application or
/// architecture is needed.
PolicyAssignment encode(int value) {
  PolicyAssignment pa(1);
  ProcessPlan plan;
  plan.copies.push_back(CopyPlan{});
  plan.copies[0].checkpoints = value;
  pa.plan(ProcessId{0}) = plan;
  return pa;
}

Move move_to(int value, int key_tag = 0) {
  Move m;
  m.pid = ProcessId{0};
  m.plan = encode(value).plan(ProcessId{0});
  m.key = TabuList::Key{key_tag, value, 0, 0};
  return m;
}

int decode(const PolicyAssignment& pa) {
  return pa.plan(ProcessId{0}).copies[0].checkpoints;
}

/// Scripted two-move landscape: value 1 costs 10, value 2 costs 20, the
/// start (value 0) costs 100.  Both moves are offered every iteration.
class TwoMoveProblem final : public SearchProblem {
 public:
  bool neighborhood(int /*iteration*/, const PolicyAssignment& /*current*/,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    out.push_back(move_to(1));
    out.push_back(move_to(2));
    return true;
  }
  Time evaluate(const Move& move) override {
    return cost_of(move.plan.copies[0].checkpoints);
  }
  Time commit(const PolicyAssignment& current) override {
    accepted.push_back(decode(current));
    return cost_of(decode(current));
  }
  static Time cost_of(int value) {
    switch (value) {
      case 1: return 10;
      case 2: return 20;
      default: return 100;
    }
  }
  std::vector<int> accepted;  ///< first entry is the initial commit
};

TEST(SearchEngine, TabuTenureExpiresAndReadmitsMoves) {
  TwoMoveProblem problem;
  SearchOptions options;
  options.max_iterations = 4;
  options.tenure = 2;
  SearchResult r = neighborhood_search(problem, encode(0), options);

  // iter 0: value 1 (cost 10) wins and becomes tabu until iteration 2.
  // iter 1: value 1 is tabu (10 >= best 10, no aspiration): value 2 is
  //         accepted uphill -- classic tabu diversification.
  // iter 2: value 1's tenure expired, value 2 now tabu: back to value 1.
  // iter 3: mirror of iter 1.
  const std::vector<int> expected{0, 1, 2, 1, 2};
  EXPECT_EQ(problem.accepted, expected);
  EXPECT_EQ(r.best_cost, 10);
  EXPECT_EQ(decode(r.best), 1);
  EXPECT_EQ(r.stats.accepted_moves, 4);
  EXPECT_EQ(r.stats.tabu_rejected, 3);  // 1@iter1, 2@iter2, 1@iter3
  EXPECT_EQ(r.stats.aspiration_accepted, 0);
  EXPECT_EQ(r.stats.evaluations, 1 + 4 * 2);
  EXPECT_EQ(r.stats.iterations, 4);
  EXPECT_FALSE(r.stats.cancelled);
}

/// One move with a fixed tabu key whose cost drops each iteration: the
/// second visit is tabu-recent but beats the global best, so aspiration
/// must admit it.
class AspirationProblem final : public SearchProblem {
 public:
  bool neighborhood(int iteration, const PolicyAssignment& /*current*/,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    iteration_ = iteration;
    out.push_back(move_to(1));
    return true;
  }
  Time evaluate(const Move& /*move*/) override { return 10 - iteration_; }
  Time commit(const PolicyAssignment& /*current*/) override { return 100; }

 private:
  int iteration_ = 0;
};

TEST(SearchEngine, AspirationAdmitsImprovingTabuMove) {
  AspirationProblem problem;
  SearchOptions options;
  options.max_iterations = 3;
  options.tenure = 10;  // never expires within the run
  SearchResult r = neighborhood_search(problem, encode(0), options);

  // iter 0 accepts at cost 10; iters 1 and 2 re-accept the tabu move only
  // because 9 < 10 and 8 < 9 strictly improve the global best.
  EXPECT_EQ(r.stats.accepted_moves, 3);
  EXPECT_EQ(r.stats.aspiration_accepted, 2);
  EXPECT_EQ(r.stats.tabu_rejected, 0);
  EXPECT_EQ(r.best_cost, 8);
}

TEST(SearchEngine, AspirationRequiresStrictImprovement) {
  TwoMoveProblem problem;
  SearchOptions options;
  options.max_iterations = 2;
  options.tenure = 10;
  SearchResult r = neighborhood_search(problem, encode(0), options);
  // iter 1: value 1 is tabu at cost 10 == best 10 -- equality must NOT
  // aspire (value 2 is accepted instead).
  const std::vector<int> expected{0, 1, 2};
  EXPECT_EQ(problem.accepted, expected);
  EXPECT_EQ(r.stats.aspiration_accepted, 0);
}

/// Emits `width` moves per iteration; a designated evaluation requests
/// cancellation through the token, simulating a deadline firing while the
/// neighborhood is being evaluated.
class CancelMidNeighborhoodProblem final : public SearchProblem {
 public:
  CancelMidNeighborhoodProblem(CancellationToken& token, int cancel_iteration)
      : token_(token), cancel_iteration_(cancel_iteration) {}

  bool neighborhood(int iteration, const PolicyAssignment& /*current*/,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    iteration_ = iteration;
    for (int v = 1; v <= kWidth; ++v) out.push_back(move_to(v));
    return true;
  }
  Time evaluate(const Move& move) override {
    if (iteration_ == cancel_iteration_) token_.request_cancel();
    return 50 - iteration_ - move.plan.copies[0].checkpoints;
  }
  Time commit(const PolicyAssignment& current) override {
    last_committed = decode(current);
    return 100;
  }

  static constexpr int kWidth = 8;
  int last_committed = -1;

 private:
  CancellationToken& token_;
  int cancel_iteration_;
  int iteration_ = 0;
};

TEST(SearchEngine, CancellationMidNeighborhoodAbandonsTheIteration) {
  CancellationToken token;
  CancelMidNeighborhoodProblem problem(token, 2);
  SearchOptions options;
  options.max_iterations = 100;
  options.tenure = 0;
  options.cancel = &token;
  SearchResult r = neighborhood_search(problem, encode(0), options);

  // Iterations 0 and 1 complete; iteration 2's partially evaluated sample
  // is abandoned wholesale (its kWidth evaluations are not counted and no
  // move from it is committed), and no further iteration starts.
  EXPECT_TRUE(r.stats.cancelled);
  EXPECT_EQ(r.stats.evaluations,
            1 + 2 * CancelMidNeighborhoodProblem::kWidth);
  EXPECT_EQ(r.stats.accepted_moves, 2);
  // The incumbent predates the cancelled neighborhood: iteration 1's best
  // move (the largest value, 50 - iter - v minimal at v = kWidth).
  EXPECT_EQ(problem.last_committed, CancelMidNeighborhoodProblem::kWidth);
  EXPECT_EQ(decode(r.best), CancelMidNeighborhoodProblem::kWidth);
}

TEST(SearchEngine, ZeroIterationBudgetReturnsTheStartWithoutSampling) {
  // The optimizers' historical `--iterations 0` contract: commit the start,
  // run nothing (in particular: never loop forever on a generator that
  // never stops, like the tabu problems').
  TwoMoveProblem problem;
  SearchOptions options;
  options.max_iterations = 0;
  SearchResult r = neighborhood_search(problem, encode(7), options);
  EXPECT_EQ(decode(r.best), 7);
  EXPECT_EQ(r.stats.evaluations, 1);
  EXPECT_EQ(r.stats.iterations, 0);
  EXPECT_EQ(problem.accepted, std::vector<int>{7});
}

TEST(SearchEngine, CancellationBeforeFirstIterationKeepsTheStart) {
  CancellationToken token;
  token.request_cancel();
  TwoMoveProblem problem;
  SearchOptions options;
  options.max_iterations = 10;
  options.cancel = &token;
  SearchResult r = neighborhood_search(problem, encode(7), options);
  EXPECT_TRUE(r.stats.cancelled);
  EXPECT_EQ(r.stats.evaluations, 1);  // only the initial commit
  EXPECT_EQ(decode(r.best), 7);
}

/// Descent landscape f(v) = (v - 6)^2 walked with +-1 neighbors; the
/// generator stops once an iteration accepted nothing.
class DescentProblem final : public SearchProblem {
 public:
  bool neighborhood(int iteration, const PolicyAssignment& current,
                    bool accepted_last, std::vector<Move>& out) override {
    if (iteration > 0 && !accepted_last) return false;  // converged
    const int v = decode(current);
    out.push_back(move_to(v - 1));
    out.push_back(move_to(v + 1));
    return true;
  }
  Time evaluate(const Move& move) override {
    const int v = move.plan.copies[0].checkpoints;
    return static_cast<Time>((v - 6) * (v - 6));
  }
  Time commit(const PolicyAssignment& current) override {
    const int v = decode(current);
    trajectory.push_back(v);
    return static_cast<Time>((v - 6) * (v - 6));
  }
  std::vector<int> trajectory;
};

TEST(SearchEngine, RequireImprovementDescendsAndStopsAtTheOptimum) {
  DescentProblem problem;
  SearchOptions options;
  options.require_improvement = true;
  SearchResult r = neighborhood_search(problem, encode(2), options);

  const std::vector<int> expected{2, 3, 4, 5, 6};  // strict descent to 6
  EXPECT_EQ(problem.trajectory, expected);
  EXPECT_EQ(decode(r.best), 6);
  EXPECT_EQ(r.best_cost, 0);
  EXPECT_EQ(r.stats.accepted_moves, 4);
  // The converged iteration (both neighbors worse) still evaluated its
  // sample; the generator then ended the search.
  EXPECT_EQ(r.stats.evaluations, 1 + 5 * 2);
}

/// Pseudo-random but reproducible landscape: the sampled values come from
/// the problem's own RNG (serial phase) and the objective is a pure hash
/// of (iteration, value), so two runs with any thread counts must walk
/// identical trajectories.
class HashProblem final : public SearchProblem {
 public:
  explicit HashProblem(std::uint64_t seed) : rng_(seed) {}

  bool neighborhood(int iteration, const PolicyAssignment& /*current*/,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    iteration_ = iteration;
    for (int s = 0; s < 6; ++s) {
      const int value = 1 + static_cast<int>(rng_.uniform_int(0, 40));
      out.push_back(move_to(value, value % 3));
    }
    return true;
  }
  Time evaluate(const Move& move) override {
    const int v = move.plan.copies[0].checkpoints;
    std::uint64_t x = static_cast<std::uint64_t>(v) * 2654435761u +
                      static_cast<std::uint64_t>(iteration_) * 40503u;
    x ^= x >> 13;
    return static_cast<Time>(100 + (x % 1000));
  }
  Time commit(const PolicyAssignment& current) override {
    trajectory.push_back(decode(current));
    return 5000;
  }
  std::vector<int> trajectory;

 private:
  Rng rng_;
  int iteration_ = 0;
};

TEST(SearchEngine, AcceptedTrajectoryIsThreadCountInvariant) {
  auto run = [&](int threads, ThreadPool* pool) {
    HashProblem problem(99);
    SearchOptions options;
    options.max_iterations = 40;
    options.tenure = 3;
    options.threads = threads;
    options.pool = pool;
    SearchResult r = neighborhood_search(problem, encode(0), options);
    return std::make_pair(problem.trajectory, r);
  };
  ThreadPool pool(3);  // real helper threads even on single-core hosts
  const auto [serial_traj, serial] = run(1, nullptr);
  const auto [parallel_traj, parallel] = run(4, &pool);

  EXPECT_EQ(serial_traj, parallel_traj);
  EXPECT_EQ(serial.best_cost, parallel.best_cost);
  EXPECT_EQ(decode(serial.best), decode(parallel.best));
  EXPECT_EQ(serial.stats.evaluations, parallel.stats.evaluations);
  EXPECT_EQ(serial.stats.accepted_moves, parallel.stats.accepted_moves);
  EXPECT_EQ(serial.stats.tabu_rejected, parallel.stats.tabu_rejected);
  EXPECT_EQ(serial.stats.aspiration_accepted,
            parallel.stats.aspiration_accepted);
  EXPECT_EQ(serial.stats.sampled_moves, parallel.stats.sampled_moves);
}

/// Fixed landscape (a hash of the value; the start, value 0, costs more
/// than any move) whose accept hook re-anchors without scoring, as the
/// EvalContext-backed problems do.
class AcceptOnlyProblem final : public SearchProblem {
 public:
  bool neighborhood(int /*iteration*/, const PolicyAssignment& /*current*/,
                    bool /*accepted_last*/, std::vector<Move>& out) override {
    for (int s = 0; s < 4; ++s) {
      const int value = 1 + static_cast<int>(rng_.uniform_int(0, 30));
      out.push_back(move_to(value, value % 4));
    }
    return true;
  }
  Time evaluate(const Move& move) override {
    return cost_of(move.plan.copies[0].checkpoints);
  }
  Time commit(const PolicyAssignment& current) override {
    ++commits;
    return cost_of(decode(current));
  }
  void accept(const PolicyAssignment& current) override {
    accepted_costs.push_back(cost_of(decode(current)));
  }
  static Time cost_of(int value) {
    if (value == 0) return 5000;
    std::uint64_t x = static_cast<std::uint64_t>(value) * 2654435761u;
    x ^= x >> 13;
    return static_cast<Time>(100 + (x % 1000));
  }
  int commits = 0;
  std::vector<Time> accepted_costs;  ///< evaluate() of each accepted move

 private:
  Rng rng_{7};
};

TEST(SearchEngine, AcceptRebasesWithoutRescoring) {
  AcceptOnlyProblem problem;
  SearchOptions options;
  options.max_iterations = 30;
  options.tenure = 2;
  const SearchResult r = neighborhood_search(problem, encode(0), options);

  // commit() scores the start only; every acceptance goes through accept()
  // and the engine keeps the winner's evaluated objective itself.
  EXPECT_EQ(problem.commits, 1);
  ASSERT_EQ(static_cast<long long>(problem.accepted_costs.size()),
            r.stats.accepted_moves);
  ASSERT_FALSE(problem.accepted_costs.empty());
  EXPECT_EQ(r.best_cost, *std::min_element(problem.accepted_costs.begin(),
                                           problem.accepted_costs.end()));
  EXPECT_EQ(AcceptOnlyProblem::cost_of(decode(r.best)), r.best_cost);
}

}  // namespace
}  // namespace ftes
