// Writes a synthesis problem in the `.ftes` text format that
// io/app_parser.h reads, so every benchmark input reaches the program as
// text.  The format has no period directive and describes uniform TDMA
// buses only; write_ftes() refuses problems it cannot express exactly.
#pragma once

#include <string>

#include "app/application.h"
#include "arch/architecture.h"
#include "fault/fault_model.h"

namespace perfbench {

/// The problem as `.ftes` text.  Unnamed processes and messages get
/// generated names (P<i>, m<i>); `name_prefix` is prepended to every name,
/// which renames a problem without changing its structure.  Throws
/// std::invalid_argument for a non-uniform bus or a non-zero period.
[[nodiscard]] std::string write_ftes(const ftes::Application& app,
                                     const ftes::Architecture& arch,
                                     const ftes::FaultModel& model,
                                     const std::string& name_prefix = "");

/// The `text=` value of a serve request: the problem with `\`, newline and
/// tab escaped (docs/SERVER.md).
[[nodiscard]] std::string escape_request_text(const std::string& text);

}  // namespace perfbench
