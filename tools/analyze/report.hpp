// Suppression + reporting for dlsbl_analyze.
//
// There are two ways to justify a finding:
//
//   * inline `// DLSBL_LINT_ALLOW(id[,id...])` markers (or `*`), for one
//     site: the marker covers its own line, and the next line when the
//     comment stands alone (see common/lexer.hpp);
//   * the facts file (tools/analyze/dlsbl_analyze.facts), one
//     `<kind> <glob> <justification...>` entry per line:
//
//       sanitize <qualified-name-glob>
//           cuts determinism at matching functions — the nondeterminism is
//           justified there (env tuning knob read once at startup) and is
//           neither reported nor propagated upward;
//       <finding-id> <file-or-symbol-glob>
//           suppresses findings with that id whose file OR symbol matches;
//           a `determinism` file glob also keeps the files' sources from
//           seeding taint (the render-only obs layer, bench timers);
//       * <file-glob>
//           drops matching files before parsing (deliberately broken
//           fixtures, which would otherwise join the call graph by name).
//
// '#' comments and blank lines are ignored. Unknown kinds are configuration
// errors (exit 2), and entries that matched nothing are reported as stale.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/passes.hpp"

namespace dlsbl::analyze {

struct FactEntry {
    std::string kind;  // "sanitize", "*" or a finding id
    std::string glob;
    std::string justification;
    std::size_t line = 0;
    mutable std::size_t hits = 0;
};

struct Facts {
    std::vector<FactEntry> entries;
    std::vector<std::string> errors;  // malformed / unknown-kind lines

    // Sets the taint config's sanitize set and justified source files.
    void configure(TaintConfig* taint) const;

    // True (and counts the hit) when a `*` entry drops `path` unparsed.
    [[nodiscard]] bool skips(const std::string& path) const;

    // True (and counts the hit) when some entry of the finding's id
    // matches its file or symbol.
    [[nodiscard]] bool suppresses(const Finding& finding) const;

    // Entries that matched nothing (stale suppressions).
    [[nodiscard]] std::vector<const FactEntry*> unused() const;
};

[[nodiscard]] Facts parse_facts(std::string_view text);

// Splits findings into kept/suppressed (order preserved): inline markers
// in the program's files first, then facts entries. Counts entry hits,
// including `sanitize` entries that match a function definition.
struct Filtered {
    std::vector<Finding> kept;
    std::size_t suppressed = 0;
};
[[nodiscard]] Filtered apply_facts(const Facts& facts, const Program& program,
                                   std::vector<Finding> findings);

// Human-readable report; returns true when there are no findings.
bool print_report(const std::vector<Finding>& findings, std::size_t suppressed,
                  std::size_t files, std::ostream& out);

// JSON artifact, RunManifest-stamped like every other run artifact.
[[nodiscard]] std::string report_json(const std::vector<Finding>& findings,
                                      std::size_t suppressed,
                                      std::size_t files);

// SARIF 2.1.0 (minimal static-analysis interchange: one run, one rule per
// pass, physical locations).
[[nodiscard]] std::string report_sarif(const std::vector<Finding>& findings);

}  // namespace dlsbl::analyze
