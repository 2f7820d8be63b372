// Tests of the JSON / C-source exporters and the Gantt renderer.
#include "sched/table_export.h"

#include <gtest/gtest.h>

#include "fixtures.h"
#include "sim/gantt.h"

namespace ftes {
namespace {

using ::ftes::testing::fig5_app;

TEST(TableExport, JsonContainsStructure) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string json = tables_to_json(r.tables, f.arch);
  for (const char* token :
       {"\"wcsl\"", "\"nodes\"", "\"N1\"", "\"N2\"", "\"bus\"", "\"guard\"",
        "\"start\"", "\"P1\"", "\"m2\""}) {
    EXPECT_NE(json.find(token), std::string::npos) << token;
  }
  // Balanced braces (cheap well-formedness check).
  int depth = 0;
  bool in_string = false;
  char prev = 0;
  for (char c : json) {
    if (c == '"' && prev != '\\') in_string = !in_string;
    if (!in_string) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
      EXPECT_GE(depth, 0);
    }
    prev = c;
  }
  EXPECT_EQ(depth, 0);
}

TEST(TableExport, JsonGuardPolarity) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string json = tables_to_json(r.tables, f.arch);
  EXPECT_NE(json.find("\"value\": true"), std::string::npos);
  EXPECT_NE(json.find("\"value\": false"), std::string::npos);
}

TEST(TableExport, CSourceCompilesShapes) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string c = tables_to_c_source(r.tables, f.arch);
  for (const char* token :
       {"ftes_guard_literal", "ftes_table_entry", "ftes_node1_table",
        "ftes_node2_table", "ftes_bus_table", "ftes_condition_names",
        "#include <stdint.h>"}) {
    EXPECT_NE(c.find(token), std::string::npos) << token;
  }
}

TEST(TableExport, CSourceHonoursPrefix) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string c = tables_to_c_source(r.tables, f.arch, "cc");
  EXPECT_NE(c.find("cc_table_entry"), std::string::npos);
  EXPECT_EQ(c.find("ftes_table_entry"), std::string::npos);
}

TEST(Gantt, RendersLanesAndMarks) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  // Pick a scenario with faults so recovery marks appear.
  const ScenarioTrace* faulty = nullptr;
  for (const ScenarioTrace& tr : r.traces) {
    if (tr.scenario.total_faults() == 2) {
      faulty = &tr;
      break;
    }
  }
  ASSERT_NE(faulty, nullptr);
  const std::string g = render_gantt(f.app, f.arch, f.assignment, *faulty);
  EXPECT_NE(g.find("N1 |"), std::string::npos);
  EXPECT_NE(g.find("N2 |"), std::string::npos);
  EXPECT_NE(g.find("bus"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);   // execution
  EXPECT_NE(g.find('='), std::string::npos);   // data transmission
}

TEST(Gantt, WidthIsRespected) {
  auto f = fig5_app();
  const CondScheduleResult r =
      conditional_schedule(f.app, f.arch, f.assignment, f.model);
  const std::string g =
      render_gantt(f.app, f.arch, f.assignment, r.traces.front());
  // Every lane line holds a kGanttWidth-char field between the pipes.
  std::istringstream in(g);
  std::string line;
  std::getline(in, line);  // header
  while (std::getline(in, line)) {
    const std::size_t open = line.find('|');
    const std::size_t close = line.find('|', open + 1);
    ASSERT_NE(open, std::string::npos);
    ASSERT_NE(close, std::string::npos);
    EXPECT_EQ(close - open - 1, static_cast<std::size_t>(kGanttWidth))
        << line;
  }
}

}  // namespace
}  // namespace ftes
