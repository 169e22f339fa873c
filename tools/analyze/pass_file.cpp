// Per-file rules: one file's token stream and parsed source hits, no
// cross-file context. Every rule is token based and intentionally
// heuristic: it trades full type resolution for zero build-graph coupling.
// Where a heuristic has a known blind spot it is documented at the rule,
// and the fixture suite (tests/analyze_fixtures/) pins both the catches
// and the permitted near-misses.
//
//   determinism       direct sources (parser.cpp's detector) outside
//                     sanitized functions; byte-identical replay depends
//                     on their absence from protocol code
//   X exactness       no ==/!= against floating-point literals: the DLT
//                     proofs are exact-rational, so float equality is
//                     either a bug or needs an explicit justification
//   L locking/alloc   mutexes via lock_guard/scoped_lock RAII only;
//                     src/crypto and the protocol core never call
//                     new/delete/malloc (the batch API contract)
//   H hygiene         #pragma once in every header, no `using namespace`
//                     at namespace scope in headers, no non-constexpr
//                     mutable globals in src/
#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analyze/passes.hpp"

namespace dlsbl::analyze {
namespace {

using sv = std::string_view;
using tool::is_ident;
using tool::is_punct;
using tool::Token;
using tool::TokenKind;

// Path-derived rule scopes.
struct Scope {
    bool is_header = false;      // .hpp / .h
    bool in_crypto = false;      // src/crypto/ (alloc rule)
    bool in_src = false;         // src/ (mutable-global rule)
    // src/protocol/ minus drivers/ and detail/ (alloc rule).
    bool in_protocol_core = false;
};

[[nodiscard]] bool ends_with(sv s, sv suffix) {
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

[[nodiscard]] Scope scope_of(const std::string& path) {
    Scope scope;
    scope.is_header = ends_with(path, ".hpp") || ends_with(path, ".h");
    scope.in_crypto = path.rfind("src/crypto/", 0) == 0;
    scope.in_src = path.rfind("src/", 0) == 0;
    scope.in_protocol_core = path.rfind("src/protocol/", 0) == 0 &&
                             path.find("/drivers/") == std::string::npos &&
                             path.find("/detail/") == std::string::npos;
    return scope;
}

class FileRules {
  public:
    FileRules(const FileModel& file, std::vector<Finding>* out)
        : file_(file), toks_(file.lexed.tokens), scope_(scope_of(file.path)),
          out_(out) {}

    void run() {
        float_equality();
        locking_alloc();
        pragma_once();
        scoped();
    }

  private:
    void report(const Token& at, const char* rule, std::string message) {
        Finding f;
        f.pass = rule;
        f.file = file_.path;
        f.line = at.line;
        f.col = at.col;
        f.message = std::move(message);
        out_->push_back(std::move(f));
    }

    // toks_[i - 1] / toks_[i + 1], or a sentinel ';' past either end.
    [[nodiscard]] const Token& prev(std::size_t i) const {
        static const Token kStart{TokenKind::kPunct, ";", 0, 0};
        return i == 0 ? kStart : toks_[i - 1];
    }

    [[nodiscard]] const Token& next(std::size_t i) const {
        static const Token kEnd{TokenKind::kPunct, ";", 0, 0};
        return i + 1 < toks_.size() ? toks_[i + 1] : kEnd;
    }

    // ------------------------------------------------ X · float equality

    // Flags ==/!= with a floating-point literal operand (optionally behind
    // a unary sign). Comparisons between two float-typed *variables* need
    // type information this pass does not have — clang-tidy's float-equal
    // warning in tools/ci covers that half.
    void float_equality() {
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token& t = toks_[i];
            if (!is_punct(t, "==") && !is_punct(t, "!=")) continue;
            const Token& lhs = prev(i);
            std::size_t r = i + 1;
            if (r < toks_.size() &&
                (is_punct(toks_[r], "-") || is_punct(toks_[r], "+"))) {
                ++r;
            }
            const bool lhs_float = lhs.kind == TokenKind::kNumber &&
                                   tool::is_float_literal(lhs.text);
            const bool rhs_float = r < toks_.size() &&
                                   toks_[r].kind == TokenKind::kNumber &&
                                   tool::is_float_literal(toks_[r].text);
            if (lhs_float || rhs_float) {
                report(t, kRuleFloatEquality,
                       "'" + t.text +
                           "' against a floating-point literal (exact-"
                           "rational paths must not fall back to float "
                           "comparison; if the comparison is intentionally "
                           "exact, justify it)");
            }
        }
    }

    // --------------------------------------------- L · locking and alloc

    void locking_alloc() {
        static const std::set<sv> kManualLockCalls = {
            "lock", "unlock", "try_lock", "try_lock_for", "try_lock_until"};
        static const std::set<sv> kHeapCalls = {
            "malloc", "calloc", "realloc", "free", "aligned_alloc",
            "posix_memalign"};
        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token& t = toks_[i];
            if (t.kind != TokenKind::kIdentifier) continue;
            const Token& before = prev(i);
            const bool member = is_punct(before, ".") || is_punct(before, "->");
            const bool called = is_punct(next(i), "(");
            if (member && called && kManualLockCalls.count(t.text) > 0) {
                report(t, kRuleManualLock,
                       "manual '" + t.text +
                           "()' call (hold mutexes via std::lock_guard / "
                           "std::scoped_lock so every exit path unlocks)");
            }
            if (!scope_.in_crypto && !scope_.in_protocol_core) continue;
            const char* where =
                scope_.in_crypto ? "src/crypto" : "the protocol core";
            if (t.text == "new" || t.text == "delete") {
                // `= delete`d members and `operator new/delete`
                // declarations are not allocations (`= new ...` still is).
                if (t.text == "delete" && is_punct(before, "=")) continue;
                if (is_ident(before, "operator")) continue;
                report(t, kRuleCryptoAlloc,
                       "'" + t.text + "' in " + where +
                           " (hot paths are zero-allocation; use stack "
                           "batches or caller-provided buffers)");
            } else if (kHeapCalls.count(t.text) > 0 && called && !member) {
                report(t, kRuleCryptoAlloc,
                       "'" + t.text + "()' in " + where +
                           " (zero-allocation contract)");
            }
        }
    }

    // ------------------------------------------------------- H · hygiene

    void pragma_once() {
        if (!scope_.is_header || toks_.empty()) return;
        const bool ok = toks_.size() >= 3 && is_punct(toks_[0], "#") &&
                        is_ident(toks_[1], "pragma") &&
                        is_ident(toks_[2], "once");
        if (!ok) {
            report(toks_[0], kRulePragmaOnce,
                   "header must open with '#pragma once' before any other "
                   "code");
        }
    }

    // Brace kinds for the walk shared by the `using namespace` and
    // mutable-global rules. Only "is any enclosing brace a function body"
    // and "are all enclosing braces namespaces" matter.
    enum class Brace { kNamespace, kType, kFunction, kExpr };

    // Classifies the brace at `open` by scanning the statement prefix
    // before it. Heuristic, by design:
    //   * `namespace`/`extern` in the prefix        -> namespace scope
    //   * `struct`/`class`/`union`/`enum` in prefix -> type scope
    //   * a `)` or `]` in the prefix (parameter
    //     list, lambda, for/if/while)               -> function body
    //   * `try`/`do`/`else` directly before         -> function body
    //   * anything else (initializer lists, array
    //     literals, designated init)                -> expression brace
    [[nodiscard]] Brace classify_brace(std::size_t open) const {
        bool saw_paren = false;
        for (std::size_t j = open; j-- > 0;) {
            const Token& t = toks_[j];
            if (is_punct(t, ";") || is_punct(t, "{") || is_punct(t, "}")) {
                break;
            }
            if (t.kind == TokenKind::kIdentifier) {
                if (t.text == "namespace" || t.text == "extern") {
                    return Brace::kNamespace;
                }
                if (t.text == "struct" || t.text == "class" ||
                    t.text == "union" || t.text == "enum") {
                    return Brace::kType;
                }
                if (j + 1 == open &&
                    (t.text == "try" || t.text == "do" || t.text == "else")) {
                    return Brace::kFunction;
                }
            }
            if (is_punct(t, ")") || is_punct(t, "]")) saw_paren = true;
        }
        return saw_paren ? Brace::kFunction : Brace::kExpr;
    }

    // One namespace-scope statement: flags it as a mutable global unless a
    // keyword exempts it (constants, type/alias/template machinery,
    // declarations of storage defined elsewhere).
    void check_global(const std::vector<std::size_t>& stmt, bool brace_init) {
        static const std::set<sv> kExempt = {
            "const",     "constexpr", "constinit", "using",    "typedef",
            "namespace", "struct",    "class",     "enum",     "union",
            "template",  "extern",    "friend",    "concept",  "static_assert",
            "operator",  "requires",
        };
        bool has_assign = false;
        std::size_t first_assign = toks_.size();
        std::size_t first_paren = toks_.size();
        std::size_t ident_count = 0;
        for (const std::size_t idx : stmt) {
            const Token& t = toks_[idx];
            if (t.kind == TokenKind::kIdentifier) {
                if (kExempt.count(t.text) > 0) return;
                ++ident_count;
            } else if (is_punct(t, "=") && first_assign == toks_.size()) {
                has_assign = true;
                first_assign = idx;
            } else if (is_punct(t, "(") && first_paren == toks_.size()) {
                first_paren = idx;
            }
        }
        // A '(' before any '=' means a function declaration/definition or
        // a macro invocation — not a variable. (Constructor-call-style
        // global definitions are the known blind spot.)
        if (first_paren < first_assign) return;
        const Token& last = toks_[stmt.back()];
        const bool type_name_pattern =
            ident_count >= 2 &&
            (last.kind == TokenKind::kIdentifier || is_punct(last, "]"));
        if (has_assign || brace_init || type_name_pattern) {
            report(toks_[stmt.front()], kRuleMutableGlobal,
                   "non-constexpr mutable global in src/ (make it "
                   "constexpr/const, or move it behind a function-local "
                   "static / explicit justification)");
        }
    }

    void scoped() {
        const bool check_using = scope_.is_header;
        const bool check_globals = scope_.in_src;
        if (!check_using && !check_globals) return;

        std::vector<Brace> stack;
        std::size_t function_depth = 0;
        std::vector<std::size_t> stmt;  // current namespace-scope statement
        bool stmt_has_brace_init = false;

        auto at_namespace_scope = [&] {
            return std::all_of(stack.begin(), stack.end(), [](Brace b) {
                return b == Brace::kNamespace;
            });
        };
        auto flush_statement = [&] {
            if (check_globals && !stmt.empty() && at_namespace_scope()) {
                check_global(stmt, stmt_has_brace_init);
            }
            stmt.clear();
            stmt_has_brace_init = false;
        };

        for (std::size_t i = 0; i < toks_.size(); ++i) {
            const Token& t = toks_[i];
            if (check_using && function_depth == 0 && is_ident(t, "using") &&
                is_ident(next(i), "namespace")) {
                report(t, kRuleUsingNamespace,
                       "'using namespace' at namespace scope in a header "
                       "leaks into every includer; qualify or alias "
                       "instead");
            }
            if (is_punct(t, "#")) {
                // Preprocessor directive: consume to end of line and treat
                // it as a statement boundary.
                while (i + 1 < toks_.size() && toks_[i + 1].line == t.line) ++i;
                flush_statement();
                continue;
            }
            if (is_punct(t, "{")) {
                const Brace brace = classify_brace(i);
                if (brace == Brace::kExpr && at_namespace_scope()) {
                    // Initializer of the current statement: skip the
                    // balanced group, remember we saw it.
                    stmt_has_brace_init = true;
                    std::size_t depth = 1;
                    while (i + 1 < toks_.size() && depth > 0) {
                        ++i;
                        if (is_punct(toks_[i], "{")) ++depth;
                        if (is_punct(toks_[i], "}")) --depth;
                    }
                    continue;
                }
                flush_statement();
                stack.push_back(brace);
                if (brace == Brace::kFunction) ++function_depth;
                continue;
            }
            if (is_punct(t, "}")) {
                flush_statement();
                if (!stack.empty()) {
                    if (stack.back() == Brace::kFunction) --function_depth;
                    stack.pop_back();
                }
                continue;
            }
            if (is_punct(t, ";")) {
                flush_statement();
                continue;
            }
            if (at_namespace_scope()) stmt.push_back(i);
        }
    }

    const FileModel& file_;
    const std::vector<Token>& toks_;
    Scope scope_;
    std::vector<Finding>* out_;
};

void report_source(const FileModel& file, const SourceHit& hit,
                   const std::string& symbol, std::vector<Finding>* out) {
    Finding f;
    f.pass = kRuleDeterminism;
    f.file = file.path;
    f.line = hit.line;
    f.col = hit.col;
    f.symbol = symbol;
    f.message = "non-deterministic source '" + hit.what +
                "' (use util/rng streams or sim time; justify a real need "
                "with a sanitize fact)";
    out->push_back(std::move(f));
}

}  // namespace

std::vector<Finding> pass_file_rules(const Program& program,
                                     const TaintConfig& config) {
    std::vector<Finding> findings;
    for (const auto& [path, model] : program.files) {
        for (const FunctionDef& fn : model.functions) {
            if (config.sanitizes(fn)) continue;
            for (const SourceHit& hit : fn.sources) {
                report_source(model, hit, fn.qualified, &findings);
            }
        }
        for (const SourceHit& hit : model.sources) {
            report_source(model, hit, "", &findings);
        }
        FileRules(model, &findings).run();
    }
    std::sort(findings.begin(), findings.end(),
              [](const Finding& a, const Finding& b) {
                  return std::tie(a.file, a.line, a.col, a.pass) <
                         std::tie(b.file, b.line, b.col, b.pass);
              });
    return findings;
}

}  // namespace dlsbl::analyze
