// Shared test fixtures: the paper's running examples.
#pragma once

#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"
#include "fault/policy.h"

namespace ftes::testing {

/// Two-node architecture (N1, N2) with a uniform TDMA bus, 5-tick slots.
inline Architecture two_node_arch() { return Architecture::homogeneous(2, 5); }

/// The Fig. 3 application: five processes on two nodes with the paper's
/// WCET table (X = mapping restriction for P3 on N2).
struct Fig3 {
  Application app;
  ProcessId p1, p2, p3, p4, p5;
};

inline Fig3 fig3_app() {
  Fig3 f;
  const NodeId n1{0}, n2{1};
  // WCETs from Fig. 3c; overheads 5 ticks each (the paper's Fig. 4 uses
  // alpha = mu = chi = 5 ms).
  f.p1 = f.app.add_process("P1", {{n1, 20}, {n2, 30}}, 5, 5, 5);
  f.p2 = f.app.add_process("P2", {{n1, 40}, {n2, 60}}, 5, 5, 5);
  f.p3 = f.app.add_process("P3", {{n1, 60}}, 5, 5, 5);  // X on N2
  f.p4 = f.app.add_process("P4", {{n1, 40}, {n2, 60}}, 5, 5, 5);
  f.p5 = f.app.add_process("P5", {{n1, 40}, {n2, 60}}, 5, 5, 5);
  f.app.connect(f.p1, f.p2, "m1");
  f.app.connect(f.p1, f.p3, "m2");
  f.app.connect(f.p2, f.p4, "m3");
  f.app.connect(f.p3, f.p5, "m4");
  f.app.set_deadline(1000);
  return f;
}

/// The Fig. 5 application: P1 -> {P2 (co-located), P4 via m1}; P2 -> P3 via
/// frozen m2; P4 -> P3 via frozen m3; P3 frozen.  Re-execution everywhere,
/// k = 2, P1/P2 on N1, P3/P4 on N2 (matching the Fig. 6 tables).
struct Fig5 {
  Application app;
  Architecture arch;
  PolicyAssignment assignment;
  FaultModel model{2};
  ProcessId p1, p2, p3, p4;
  MessageId m_p1p2, m1, m2, m3;
};

inline Fig5 fig5_app() {
  Fig5 f;
  f.arch = two_node_arch();
  const NodeId n1{0}, n2{1};
  f.p1 = f.app.add_process("P1", {{n1, 30}, {n2, 30}}, 5, 0, 0);
  f.p2 = f.app.add_process("P2", {{n1, 25}, {n2, 25}}, 5, 0, 0);
  {
    Process p3;
    p3.name = "P3";
    p3.wcet[n1] = 25;
    p3.wcet[n2] = 25;
    p3.alpha = 5;
    p3.frozen = true;  // transparency requirement of Fig. 5
    f.p3 = f.app.add_process(std::move(p3));
  }
  f.p4 = f.app.add_process("P4", {{n1, 30}, {n2, 30}}, 5, 0, 0);
  f.m_p1p2 = f.app.connect(f.p1, f.p2, "m0");
  f.m1 = f.app.connect(f.p1, f.p4, "m1");
  {
    Message m2;
    m2.src = f.p2;
    m2.dst = f.p3;
    m2.name = "m2";
    m2.frozen = true;
    f.m2 = f.app.add_message(std::move(m2));
  }
  {
    Message m3;
    m3.src = f.p4;
    m3.dst = f.p3;
    m3.name = "m3";
    m3.frozen = true;
    f.m3 = f.app.add_message(std::move(m3));
  }
  f.app.set_deadline(500);

  f.assignment = PolicyAssignment(f.app.process_count());
  auto reexec = [&](ProcessId pid, NodeId node) {
    ProcessPlan plan = make_checkpointing_plan(f.model.k, 1);
    plan.copies[0].node = node;
    f.assignment.plan(pid) = plan;
  };
  reexec(f.p1, n1);
  reexec(f.p2, n1);
  reexec(f.p3, n2);
  reexec(f.p4, n2);
  return f;
}

/// Replaces the plan of every `stride`-th process (without a designer-fixed
/// policy or mapping) by active replication: k + 1 copies placed
/// round-robin over the process's allowed nodes.  Greedy initial plans are
/// single-copy, so equivalence tests use this to put multi-copy producers
/// and consumers into their copy graphs.
inline void replicate_every(const Application& app, const Architecture& arch,
                            const FaultModel& model, int stride,
                            PolicyAssignment& assignment) {
  for (int i = 0; i < app.process_count(); i += stride) {
    const Process& proc = app.process(ProcessId{i});
    if (proc.fixed_policy || proc.fixed_mapping) continue;
    std::vector<NodeId> allowed;
    for (NodeId n : arch.node_ids()) {
      if (proc.can_run_on(n)) allowed.push_back(n);
    }
    ProcessPlan plan = make_replication_plan(model.k);
    for (std::size_t j = 0; j < plan.copies.size(); ++j) {
      plan.copies[j].node = allowed[j % allowed.size()];
    }
    assignment.plan(ProcessId{i}) = plan;
  }
}

/// Gives every `stride`-th process the release offset `release`.
/// gen/taskgen never sets Process::release, so equivalence tests use this
/// to make a ready copy's start bound max(data_ready, release) differ from
/// its data-ready time -- and to make the released copies tie at it.
inline void release_every(Application& app, int stride, Time release) {
  for (int i = 0; i < app.process_count(); i += stride) {
    app.process(ProcessId{i}).release = release;
  }
}

}  // namespace ftes::testing
