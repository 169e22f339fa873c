// Program construction and cross-TU linking for dlsbl_analyze.
//
// The tree walk parses every .hpp/.cpp under the requested roots (platform-
// conditional sources included) and closes the set over quoted includes,
// so headers outside the roots still join the program.
//
// CallIndex is the linker: it joins CallSites to FunctionDefs by qualified
// suffix / member name / simple name, deliberately over-approximating —
// taint must not leak through an unresolved edge.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "analyze/model.hpp"

namespace dlsbl::analyze {

// One pass-independent problem found while building the program (an
// unreadable or missing path). `pass` is "io-error".
struct BuildError {
    std::string pass;
    std::string file;
    std::string message;
};

// Parses already-loaded sources; the unit-test entry point.
[[nodiscard]] Program build_program_from_sources(
    const std::vector<std::pair<std::string, std::string>>& path_to_source);

// Walks `roots` (repo-relative files or directories) under `repo_root` and
// parses every C++ source/header for which `skip` (when set) is false.
// Unreadable paths append to `errors`.
[[nodiscard]] Program build_program_tree(
    const std::string& repo_root, const std::vector<std::string>& roots,
    std::vector<BuildError>* errors,
    const std::function<bool(const std::string&)>& skip = {});

// Resolves a quoted include as written to a path present in `known` paths:
// tries project-root-relative ("src/" prefix layout), then relative to the
// including file. Returns "" when the include is not part of the program.
[[nodiscard]] std::string resolve_include(const Program& program,
                                          const std::string& includer,
                                          const std::string& include);

// Reference to one function definition inside a Program.
struct FnRef {
    const FileModel* file = nullptr;
    const FunctionDef* fn = nullptr;
};

class CallIndex {
  public:
    explicit CallIndex(const Program& program);

    // All definitions a call site may reach, given the class of the
    // calling function ("" for free functions). Qualified calls match on
    // qualified-name suffix; member calls match any method with the simple
    // name (receiver types are unknown); plain calls match free functions
    // plus same-class methods — an unqualified call cannot reach another
    // class's method, so excluding those is precision, not risk.
    [[nodiscard]] std::vector<FnRef> resolve(const CallSite& call,
                                             const std::string& caller_class)
        const;

    [[nodiscard]] const std::vector<FnRef>& all() const { return all_; }

  private:
    std::vector<FnRef> all_;
    std::map<std::string, std::vector<std::size_t>> by_simple_name_;
};

}  // namespace dlsbl::analyze
