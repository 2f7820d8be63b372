#include "gen/taskgen.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace ftes {

Architecture generate_architecture(const TaskGenParams& params) {
  return Architecture::homogeneous(params.node_count, params.slot_length);
}

TaskGenParams scale_family_params(int process_count, int node_count) {
  if (process_count < 1) throw std::invalid_argument("empty scale family");
  TaskGenParams p;
  p.process_count = process_count;
  p.node_count = node_count;
  // Wide and shallow: ~25 layers regardless of size, so the critical path
  // (and with it the schedule horizon) grows slowly while the node load
  // grows linearly.
  p.min_layer_width = std::max(1, process_count / 50);
  p.max_layer_width = std::max(2, process_count / 20);
  p.max_in_degree = 2;
  p.wcet_min = 10;
  p.wcet_max = 60;
  p.overhead_min_fraction = 0.05;
  p.overhead_max_fraction = 0.10;
  p.restriction_probability = 0.05;
  p.msg_size_min = 1;
  p.msg_size_max = 1;
  p.slot_length = 4;
  // 10x the resource-free critical path.  That is not slack on few nodes:
  // the node load grows with process_count and the deadline does not
  // (see taskgen.h).  Other scale tests consume these inputs, so the
  // factor stays.
  p.deadline_factor = 10.0;
  return p;
}

std::vector<ScaleFamily> scale_families() {
  return {
      ScaleFamily{"scale500", scale_family_params(500, 2)},
      ScaleFamily{"scale750", scale_family_params(750, 4)},
      ScaleFamily{"scale1000", scale_family_params(1000, 6)},
  };
}

Application generate_application(const TaskGenParams& params, Rng& rng) {
  if (params.process_count < 1) throw std::invalid_argument("empty graph");
  if (params.node_count < 1) throw std::invalid_argument("no nodes");

  Application app;

  // ---- layered structure -------------------------------------------------
  std::vector<int> layer_of;  // per process
  {
    int placed = 0;
    int layer = 0;
    while (placed < params.process_count) {
      const int width = static_cast<int>(rng.uniform_int(
          params.min_layer_width,
          std::max<std::int64_t>(params.min_layer_width,
                                 params.max_layer_width)));
      for (int i = 0; i < width && placed < params.process_count; ++i) {
        layer_of.push_back(layer);
        ++placed;
      }
      ++layer;
    }
  }

  // ---- processes ----------------------------------------------------------
  for (int i = 0; i < params.process_count; ++i) {
    Process p;
    p.name = "P" + std::to_string(i + 1);
    const Time base = rng.uniform_int(params.wcet_min, params.wcet_max);
    int allowed = 0;
    for (int n = 0; n < params.node_count; ++n) {
      if (rng.chance(params.restriction_probability) &&
          allowed + (params.node_count - n - 1) >= 1) {
        continue;  // restricted, but keep at least one node reachable
      }
      const double scale = rng.uniform_real(0.7, 1.3);
      p.wcet[NodeId{n}] = std::max<Time>(
          1, static_cast<Time>(std::llround(static_cast<double>(base) * scale)));
      ++allowed;
    }
    if (allowed == 0) p.wcet[NodeId{0}] = base;  // defensive: never empty
    const double frac = rng.uniform_real(params.overhead_min_fraction,
                                         params.overhead_max_fraction);
    const Time overhead =
        std::max<Time>(1, static_cast<Time>(std::llround(
                              static_cast<double>(base) * frac)));
    p.alpha = overhead;
    p.mu = overhead;
    p.chi = overhead;
    p.frozen = rng.chance(params.frozen_process_fraction);
    app.add_process(std::move(p));
  }

  // ---- edges ----------------------------------------------------------------
  for (int i = 0; i < params.process_count; ++i) {
    if (layer_of[static_cast<std::size_t>(i)] == 0) continue;
    // Candidate producers: any process in a strictly earlier layer.
    std::vector<int> producers;
    for (int j = 0; j < params.process_count; ++j) {
      if (layer_of[static_cast<std::size_t>(j)] <
          layer_of[static_cast<std::size_t>(i)]) {
        producers.push_back(j);
      }
    }
    if (producers.empty()) continue;
    const int degree = static_cast<int>(
        rng.uniform_int(1, std::min<std::int64_t>(params.max_in_degree,
                                                  static_cast<std::int64_t>(
                                                      producers.size()))));
    rng.shuffle(producers);
    for (int d = 0; d < degree; ++d) {
      Message m;
      m.src = ProcessId{producers[static_cast<std::size_t>(d)]};
      m.dst = ProcessId{i};
      m.size = rng.uniform_int(params.msg_size_min, params.msg_size_max);
      m.frozen = rng.chance(params.frozen_message_fraction);
      app.add_message(std::move(m));
    }
  }

  // ---- deadline -------------------------------------------------------------
  // Ideal lower bound: critical path of mean WCETs assuming free resources.
  std::vector<Time> depth(static_cast<std::size_t>(params.process_count), 0);
  Time critical = 0;
  for (ProcessId pid : app.topological_order()) {
    const Process& p = app.process(pid);
    Time mean = 0;
    // lint: order-insensitive -- integer sum over the values; Time is int64
    // ticks, so accumulation order cannot change the mean
    for (const auto& [node, c] : p.wcet) mean += c;
    mean /= static_cast<Time>(p.wcet.size());
    Time in = 0;
    for (ProcessId pred : app.predecessors(pid)) {
      in = std::max(in, depth[static_cast<std::size_t>(pred.get())]);
    }
    depth[static_cast<std::size_t>(pid.get())] = in + mean;
    critical = std::max(critical, in + mean);
  }
  app.set_deadline(static_cast<Time>(
      std::llround(static_cast<double>(critical) * params.deadline_factor)));
  app.set_period(app.deadline());
  return app;
}

}  // namespace ftes
