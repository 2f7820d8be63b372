// Tests of the FT-CPG construction (Section 5.1), including the structural
// reproduction of the paper's Fig. 5 example.
#include "ftcpg/builder.h"

#include <gtest/gtest.h>

#include "fixtures.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;

TEST(Guard, AddAndContains) {
  Guard g;
  g.add(Literal{3, true});
  g.add(Literal{1, false});
  g.add(Literal{3, true});  // duplicate ignored
  EXPECT_EQ(g.literals().size(), 2u);
  EXPECT_TRUE(g.contains(Literal{3, true}));
  EXPECT_FALSE(g.contains(Literal{3, false}));
  EXPECT_EQ(g.faults(), 1);
  EXPECT_THROW(g.add(Literal{3, false}), std::logic_error);
}

TEST(Guard, OfSortsOnceAndCollapsesDuplicates) {
  const Guard g = Guard::of({Literal{4, false}, Literal{1, true},
                             Literal{4, false}, Literal{2, true},
                             Literal{1, true}});
  const std::vector<Literal> want{Literal{1, true}, Literal{2, true},
                                  Literal{4, false}};
  EXPECT_EQ(g.literals(), want);
  Guard added;
  for (const Literal& lit : {Literal{2, true}, Literal{4, false},
                             Literal{1, true}, Literal{4, false}}) {
    added.add(lit);
  }
  EXPECT_EQ(g, added);
  EXPECT_EQ(g.faults(), 2);
}

TEST(Guard, OfRejectsAnOppositePair) {
  EXPECT_THROW((void)Guard::of({Literal{3, true}, Literal{1, false},
                                Literal{3, false}}),
               std::logic_error);
  EXPECT_THROW((void)Guard::of({Literal{0, false}, Literal{0, true}}),
               std::logic_error);
}

TEST(Guard, OfEmptyIsTheTrueGuard) {
  const Guard g = Guard::of({});
  EXPECT_TRUE(g.literals().empty());
  EXPECT_EQ(g, Guard{});
  EXPECT_EQ(g.faults(), 0);
}

TEST(Guard, RetainKeepsOrder) {
  Guard g = Guard::of({Literal{5, true}, Literal{2, false}, Literal{9, true},
                       Literal{7, false}});
  g.retain([](const Literal& lit) { return lit.vertex != 7; });
  const std::vector<Literal> want{Literal{2, false}, Literal{5, true},
                                  Literal{9, true}};
  EXPECT_EQ(g.literals(), want);
  g.retain([](const Literal&) { return false; });
  EXPECT_EQ(g, Guard{});
}

TEST(Guard, ContradictionAndConjunction) {
  Guard a;
  a.add(Literal{1, true});
  Guard b;
  b.add(Literal{1, false});
  Guard c;
  c.add(Literal{2, true});
  EXPECT_TRUE(a.contradicts(b));
  EXPECT_FALSE(a.contradicts(c));
  const Guard ac = a.conjoin(c);
  EXPECT_EQ(ac.faults(), 2);
  EXPECT_THROW(a.conjoin(b), std::logic_error);
}

TEST(Ftcpg, Fig5CopyCounts) {
  auto f = fig5_app();
  const Ftcpg g = build_ftcpg(f.app, f.assignment, f.model);

  // The paper's Fig. 5b copy counts for k = 2 with re-execution:
  // P1: 1 + 2 recoveries = 3 copies; P2 and P4 inherit P1's three fault
  // contexts: 3 + 2 + 1 = 6 copies; frozen P3 collapses contexts: 3 copies.
  EXPECT_EQ(g.copies_of(f.p1).size(), 3u);
  EXPECT_EQ(g.copies_of(f.p2).size(), 6u);
  EXPECT_EQ(g.copies_of(f.p4).size(), 6u);
  EXPECT_EQ(g.copies_of(f.p3).size(), 3u);
}

TEST(Ftcpg, Fig5Census) {
  auto f = fig5_app();
  const Ftcpg g = build_ftcpg(f.app, f.assignment, f.model);
  const Ftcpg::Census c = g.census();
  // Synchronization nodes: S_m2, S_m3, S_P3 (m0 between co-located P1 and
  // P2 is folded; m1 is a regular cross-node message).
  EXPECT_EQ(c.synchronization, 3);
  // Conditional executions: P1 (2) + P2 (3) + P4 (3) + P3 (2) = 10.
  EXPECT_EQ(c.conditional, 10);
  // Regular: final attempts 8 (P1 1, P2 3, P4 3, P3 1) + 3 m1 copies = 11.
  EXPECT_EQ(c.regular, 11);
  EXPECT_EQ(g.node_count(), 24);
  EXPECT_NO_THROW(g.check_invariants());
}

TEST(Ftcpg, Fig5MessageCopies) {
  auto f = fig5_app();
  const Ftcpg g = build_ftcpg(f.app, f.assignment, f.model);
  int m1_copies = 0;
  for (const FtcpgNode& n : g.nodes()) {
    if (n.role == FtcpgNodeRole::kMessage && n.message == f.m1) ++m1_copies;
  }
  EXPECT_EQ(m1_copies, 3);  // one per completion alternative of P1
}

TEST(Ftcpg, GuardsCarryFaultContexts) {
  auto f = fig5_app();
  const Ftcpg g = build_ftcpg(f.app, f.assignment, f.model);
  // Each copy's guard consumes at most k faults, and copies of one process
  // have pairwise distinct guards (disjoint alternatives).
  for (ProcessId pid : {f.p1, f.p2, f.p4}) {
    const std::vector<int> copies = g.copies_of(pid);
    for (std::size_t i = 0; i < copies.size(); ++i) {
      EXPECT_LE(g.node(copies[i]).guard.faults(), f.model.k);
      for (std::size_t j = i + 1; j < copies.size(); ++j) {
        EXPECT_FALSE(g.node(copies[i]).guard == g.node(copies[j]).guard);
      }
    }
  }
  // Frozen P3's copies have context-free guards (only their own literals).
  for (int v : g.copies_of(f.p3)) {
    for (const Literal& lit : g.node(v).guard.literals()) {
      EXPECT_EQ(g.node(lit.vertex).process, f.p3);
    }
  }
}

TEST(Ftcpg, TransparencyShrinksTheGraph) {
  auto frozen = fig5_app();
  auto open = fig5_app();
  open.app.process(open.p3).frozen = false;
  open.app.message(open.m2).frozen = false;
  open.app.message(open.m3).frozen = false;
  const Ftcpg g_frozen = build_ftcpg(frozen.app, frozen.assignment, frozen.model);
  const Ftcpg g_open = build_ftcpg(open.app, open.assignment, open.model);
  // Without sync nodes P3 inherits every joint fault context of P2 and P4,
  // so the FT-CPG grows (Section 3.3's debugability argument).
  EXPECT_GT(g_open.copies_of(open.p3).size(), g_frozen.copies_of(frozen.p3).size());
  EXPECT_GT(g_open.node_count(), g_frozen.node_count());
  EXPECT_NO_THROW(g_open.check_invariants());
}

TEST(Ftcpg, ReplicationProducesParallelCopies) {
  auto f = fig5_app();
  // Replicate P1 instead of re-executing it.
  ProcessPlan plan = make_replication_plan(f.model.k);
  plan.copies[0].node = NodeId{0};
  plan.copies[1].node = NodeId{1};
  plan.copies[2].node = NodeId{0};
  f.assignment.plan(f.p1) = plan;
  const Ftcpg g = build_ftcpg(f.app, f.assignment, f.model);
  EXPECT_EQ(g.copies_of(f.p1).size(), 3u);  // k+1 replicas, one context each
  for (int v : g.copies_of(f.p1)) {
    EXPECT_EQ(g.node(v).kind, FtcpgNodeKind::kRegular);
  }
  EXPECT_NO_THROW(g.check_invariants());
}

TEST(Ftcpg, VertexCapGuardsExplosion) {
  auto f = fig5_app();
  FtcpgBuildOptions opts;
  opts.max_vertices = 5;
  EXPECT_THROW((void)build_ftcpg(f.app, f.assignment, f.model, opts),
               std::length_error);
}

TEST(Ftcpg, DotExportMentionsSyncNodes) {
  auto f = fig5_app();
  const Ftcpg g = build_ftcpg(f.app, f.assignment, f.model);
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("S_P3"), std::string::npos);
  EXPECT_NE(dot.find("S_m2"), std::string::npos);
  EXPECT_NE(dot.find("shape=box"), std::string::npos);
}

TEST(Ftcpg, ZeroFaultGraphIsPlain) {
  auto f = fig5_app();
  FaultModel fm{0};
  PolicyAssignment pa(f.app.process_count());
  for (int i = 0; i < f.app.process_count(); ++i) {
    ProcessPlan plan;
    CopyPlan copy;
    copy.node = NodeId{i < 2 ? 0 : 1};
    copy.checkpoints = 1;
    plan.copies.push_back(copy);
    pa.plan(ProcessId{i}) = plan;
  }
  const Ftcpg g = build_ftcpg(f.app, pa, fm);
  const Ftcpg::Census c = g.census();
  EXPECT_EQ(c.conditional, 0);
  EXPECT_EQ(c.conditional_edges, 0);
  // 4 processes + 1 m1 message + 3 sync (P3, m2, m3 still frozen).
  EXPECT_EQ(g.node_count(), 8);
}

}  // namespace
}  // namespace ftes
