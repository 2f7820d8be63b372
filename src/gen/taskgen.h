// Synthetic task-graph generator in the TGFF tradition, standing in for the
// authors' in-house benchmark generator (DESIGN.md Section 5).
//
// Generates layered acyclic process graphs with the parameter ranges used
// by the paper's experiments (Section 6): 20-100 processes on 2-6 nodes,
// k = 3..7 tolerated faults, WCETs drawn uniformly, fault-tolerance
// overheads alpha/mu/chi as fractions of the WCET, a configurable fraction
// of mapping restrictions ("X" entries of Fig. 3c) and of frozen
// processes/messages (transparency).
#pragma once

#include <cstdint>
#include <vector>

#include "app/application.h"
#include "arch/architecture.h"
#include "util/random.h"

namespace ftes {

struct TaskGenParams {
  int process_count = 20;
  int node_count = 3;

  /// Layered DAG shape.
  int min_layer_width = 1;
  int max_layer_width = 5;
  int max_in_degree = 3;

  /// WCET range (ticks) on a reference node; per-node WCETs vary +-30%.
  Time wcet_min = 10;
  Time wcet_max = 100;

  /// Overheads as fractions of the process's mean WCET (the paper's
  /// experiments use 5-15%).
  double overhead_min_fraction = 0.05;
  double overhead_max_fraction = 0.15;

  /// Probability that a (process, node) pair is restricted ("X").
  double restriction_probability = 0.10;

  /// Fraction of processes / messages declared frozen.
  double frozen_process_fraction = 0.0;
  double frozen_message_fraction = 0.0;

  /// Message sizes in abstract payload units (1 unit == 1 TDMA slot).
  std::int64_t msg_size_min = 1;
  std::int64_t msg_size_max = 2;

  /// TDMA slot length in ticks.
  Time slot_length = 4;

  /// Deadline slack factor: deadline = factor * ideal critical path.
  double deadline_factor = 6.0;
};

/// Generates the application; every process can run on >= 1 node.
[[nodiscard]] Application generate_application(const TaskGenParams& params,
                                               Rng& rng);

/// Matching homogeneous architecture (node_count nodes, uniform TDMA bus).
[[nodiscard]] Architecture generate_architecture(const TaskGenParams& params);

// --- scale families ---------------------------------------------------------
//
// Standing large-scale workloads for the adversarial fuzzer and the
// optimizer benchmarks: 500-1000-process graphs, an order of magnitude
// past the paper's 20-100-process sweep.  The shape is tuned for scale --
// wide layers (so the graph stays shallow and the critical path short) and
// low in-degree (so message count grows linearly).  The deadline is 10x the
// resource-free critical path, which does not grow with the node load, so
// the families are not schedulable: under the greedy re-execution
// assignment at k = 1 (Rng seed 2008) the WCSL is 9992, 16938 and 34281
// against deadlines of 3890, 4130 and 4100, and every fault scenario of
// scale500's tables misses the deadline.  A fuzz pass over their tables
// is expected to find deadline misses and nothing else.  Keep k small (1)
// when building schedule tables on these: the scenario tree is
// Theta(copies^k).

/// Parameters for one scale-family instance.  process_count must be >= 1;
/// typical values 500-1000.
[[nodiscard]] TaskGenParams scale_family_params(int process_count,
                                                int node_count);

/// A named member of the standing scale-family suite.
struct ScaleFamily {
  const char* name;
  TaskGenParams params;
};

/// The standing suite: scale500/2, scale750/4, scale1000/6
/// (process_count/node_count).
[[nodiscard]] std::vector<ScaleFamily> scale_families();

}  // namespace ftes
