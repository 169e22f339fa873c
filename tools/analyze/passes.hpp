// The passes of dlsbl_analyze. Finding ids (README "Static analysis" has
// the full table):
//
// Per-file rules over one file's tokens and parsed source hits:
//   determinism         a direct nondeterminism source (wall clock, rand*,
//                       getenv, pointer hashing) outside a sanitized
//                       function, reported at its site
//   float-equality      ==/!= against a floating-point literal
//   manual-lock         .lock()/.unlock()/try_lock*() instead of RAII
//   crypto-alloc        new/delete/malloc-family in src/crypto or the
//                       protocol core (zero-allocation contract)
//   pragma-once, using-namespace-header   header hygiene
//   mutable-global      non-constexpr namespace-scope variables in src/
//
// Interprocedural passes over the linked Program:
//   taint-determinism   nondeterminism sources (the ones above, plus
//                       unordered iteration) propagated backwards through
//                       the call graph into protocol-artifact code
//   lock-order          RAII acquisition graph over all named mutexes with
//                       cycle detection (incl. same-class double acquisition)
//   dispatch-exhaustiveness  every MsgType handled at every dispatcher
//                       registration site; churn event kinds adjudicated
//   layering-dag        declared module DAG enforced over the real include
//                       graph and over module-qualified names (`sim::`),
//                       plus file-level include-cycle detection (reported
//                       as "include-cycle")
//
// Each pass is a pure function Program -> findings; suppression (inline
// markers and the facts file) happens in report.cpp so passes stay
// side-channel-free.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/model.hpp"
#include "analyze/program.hpp"

namespace dlsbl::analyze {

struct Finding {
    std::string pass;    // pass id, doubles as the SARIF ruleId
    std::string file;    // repo-relative, "" for program-level findings
    std::size_t line = 0;
    std::size_t col = 0;
    std::string symbol;  // qualified function / lock node / enumerator
    std::string message;
    std::vector<std::string> notes;  // e.g. the taint call chain
};

inline constexpr const char* kRuleDeterminism = "determinism";
inline constexpr const char* kRuleFloatEquality = "float-equality";
inline constexpr const char* kRuleManualLock = "manual-lock";
inline constexpr const char* kRuleCryptoAlloc = "crypto-alloc";
inline constexpr const char* kRulePragmaOnce = "pragma-once";
inline constexpr const char* kRuleUsingNamespace = "using-namespace-header";
inline constexpr const char* kRuleMutableGlobal = "mutable-global";
inline constexpr const char* kPassTaint = "taint-determinism";
inline constexpr const char* kPassLockOrder = "lock-order";
inline constexpr const char* kPassDispatch = "dispatch-exhaustiveness";
inline constexpr const char* kPassLayering = "layering-dag";
inline constexpr const char* kPassIncludeCycle = "include-cycle";
inline constexpr const char* kPassConfig = "config-error";
inline constexpr const char* kPassIo = "io-error";

// '*' (any run of characters, '/' included) and '?' glob over the whole
// string; facts-file globs match repo-relative paths and qualified names.
[[nodiscard]] bool glob_match(std::string_view glob, std::string_view text);

struct TaintConfig {
    // Functions defined in files under these prefixes are sinks: taint
    // reaching them is a finding.
    std::vector<std::string> protected_prefixes;
    // File globs whose direct sources are justified wholesale (the facts
    // file's `determinism` entries: the render-only obs layer, bench
    // timers): they are not taint seeds.
    std::vector<std::string> source_exempt;
    // Qualified-name globs whose taint is cut (the facts file's `sanitize`
    // entries): no source findings, no seeds, no propagation.
    std::vector<std::string> sanitized;

    [[nodiscard]] bool sanitizes(const FunctionDef& fn) const;
};

struct DispatchSite {
    std::string label;  // "node", "referee"
    std::string file;   // repo-relative file holding the registrations
};

// One exhaustiveness obligation. With `sites`, every enumerator must appear
// as the first argument of a registration call (`on(MsgType::kBid, ...)` or
// `ignore(MsgType::kBid)`) in every site file. With `mention_files`, every
// enumerator must at least be referenced (switch-style adjudication code).
struct DispatchCheck {
    std::string enum_name;
    std::string enum_file;
    std::vector<DispatchSite> sites;
    std::vector<std::string> registration_calls;  // e.g. {"on", "ignore"}
    std::vector<std::string> mention_files;
};

struct LayeringException {
    std::string path_prefix;       // "src/protocol/drivers/"
    std::set<std::string> extra;   // additional modules those files may use
};

struct LayeringConfig {
    // module -> modules it may include. Self-includes are always allowed;
    // a module absent from the map may include nothing but itself.
    std::map<std::string, std::set<std::string>> allowed;
    std::vector<LayeringException> exceptions;
};

struct AnalyzeConfig {
    TaintConfig taint;
    std::vector<DispatchCheck> dispatch;
    LayeringConfig layering;
};

// The repo's own architecture: protected protocol surface, the two message
// dispatch sites, the declared module DAG.
[[nodiscard]] AnalyzeConfig default_config();

[[nodiscard]] std::vector<Finding> pass_file_rules(const Program& program,
                                                   const TaintConfig& config);
[[nodiscard]] std::vector<Finding> pass_taint(const Program& program,
                                              const TaintConfig& config);
[[nodiscard]] std::vector<Finding> pass_lock_order(const Program& program);
[[nodiscard]] std::vector<Finding> pass_dispatch(
    const Program& program, const std::vector<DispatchCheck>& checks);
[[nodiscard]] std::vector<Finding> pass_layering(const Program& program,
                                                 const LayeringConfig& config);

// The passes in execution order, for per-pass timing.
struct PassRun {
    const char* name;
    std::vector<Finding> (*run)(const Program&, const AnalyzeConfig&);
};
[[nodiscard]] const std::vector<PassRun>& pass_runs();

// All passes in fixed order with the given config.
[[nodiscard]] std::vector<Finding> run_passes(const Program& program,
                                              const AnalyzeConfig& config);

// Every finding id a pass can emit (CLI --list-passes, SARIF rules, facts
// validation).
[[nodiscard]] const std::vector<std::string>& all_pass_ids();

}  // namespace dlsbl::analyze
