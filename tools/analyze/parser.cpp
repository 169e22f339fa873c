#include "analyze/parser.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/lexer.hpp"

namespace dlsbl::analyze {
namespace {

using tool::is_ident;
using tool::is_punct;
using tool::Token;
using tool::TokenKind;

// Control-flow and operator keywords that look like `name(` call sites but
// are not calls.
constexpr std::array<std::string_view, 16> kNotCalls = {
    "if",       "for",           "while",       "switch",
    "catch",    "return",        "sizeof",      "alignof",
    "decltype", "static_assert", "noexcept",    "alignas",
    "throw",    "co_return",     "co_yield",    "co_await",
};

constexpr std::array<std::string_view, 3> kLockGuards = {
    "lock_guard", "scoped_lock", "unique_lock"};

// Direct nondeterminism sources by bare identifier. `::now`, `time(`,
// `clock(` and pointer-keyed std::hash need context and are matched
// separately.
constexpr std::array<std::string_view, 14> kDirectSources = {
    "rand",          "srand",         "rand_r",       "drand48",
    "lrand48",       "mrand48",       "random_device", "getenv",
    "secure_getenv", "gettimeofday",  "clock_gettime", "timespec_get",
    "localtime",     "gmtime",
};

// `time` / `clock` are common member and variable names, so they count as
// the libc calls only when std::-qualified or in expression context (the
// previous token is one of these, or `return`). Declarations
// (`Event& time(double);`) and member calls (`event.time(1)`) pass.
constexpr std::array<std::string_view, 25> kExprContextPrev = {
    "=",  "(",  ",",  ";",  "{",  "}",  "+",  "-",  "*",
    "/",  "%",  "<",  ">",  "?",  ":",  "||", "&&", "!",
    "==", "!=", "<=", ">=", "+=", "-=", "return",
};

constexpr std::array<std::string_view, 8> kContainerKinds = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset", "map", "set", "multimap", "multiset"};

constexpr std::array<std::string_view, 4> kIterationMembers = {
    "begin", "cbegin", "rbegin", "crbegin"};

template <std::size_t N>
bool contains(const std::array<std::string_view, N>& arr, std::string_view s) {
    return std::find(arr.begin(), arr.end(), s) != arr.end();
}

// Skips a balanced template-argument list starting at tokens[i] == "<".
// Returns the index just past the closing ">", or `i` unchanged when the
// angles do not balance before a statement boundary (then it was a
// comparison, not a template).
std::size_t skip_angles(const std::vector<Token>& toks, std::size_t i) {
    if (i >= toks.size() || !is_punct(toks[i], "<")) return i;
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        const Token& t = toks[j];
        if (t.kind != TokenKind::kPunct) continue;
        if (t.text == "<") ++depth;
        else if (t.text == ">") --depth;
        else if (t.text == ">>") depth -= 2;
        else if (t.text == ";" || t.text == "{" || t.text == "}") return i;
        if (depth <= 0) return j + 1;
    }
    return i;
}

// Skips a balanced (...) / [...] / {...} group starting at an opener.
std::size_t skip_group(const std::vector<Token>& toks, std::size_t i) {
    if (i >= toks.size() || toks[i].kind != TokenKind::kPunct) return i;
    const std::string_view open = toks[i].text;
    std::string_view close;
    if (open == "(") close = ")";
    else if (open == "[") close = "]";
    else if (open == "{") close = "}";
    else return i;
    int depth = 0;
    for (std::size_t j = i; j < toks.size(); ++j) {
        if (toks[j].kind != TokenKind::kPunct) continue;
        if (toks[j].text == open) ++depth;
        else if (toks[j].text == close) --depth;
        if (depth == 0) return j + 1;
    }
    return toks.size();
}

// Walks backwards from `i` (exclusive) collecting an `a::b::c` qualifier
// chain; returns the joined qualifier ("" when the name is unqualified).
std::string qualifier_before(const std::vector<Token>& toks, std::size_t i) {
    std::vector<std::string> parts;
    std::size_t j = i;
    while (j >= 2 && is_punct(toks[j - 1], "::") &&
           toks[j - 2].kind == TokenKind::kIdentifier) {
        parts.push_back(toks[j - 2].text);
        j -= 2;
    }
    std::reverse(parts.begin(), parts.end());
    std::string out;
    for (const std::string& p : parts) {
        if (!out.empty()) out += "::";
        out += p;
    }
    return out;
}

// Trailing identifier path of a token range, e.g. `other.mutex_` -> object
// "other", member "mutex_"; `Foo::mu` -> object "Foo", member "mu"; bare
// `mu` -> object "", member "mu". Returns false when the range does not end
// in an identifier.
bool trailing_path(const std::vector<Token>& toks, std::size_t begin,
                   std::size_t end, std::string* object, std::string* member) {
    if (end <= begin) return false;
    std::size_t last = end - 1;
    // Allow a trailing close-paren-free path only.
    if (toks[last].kind != TokenKind::kIdentifier) return false;
    *member = toks[last].text;
    object->clear();
    if (last >= begin + 2 && toks[last - 1].kind == TokenKind::kPunct) {
        const std::string& sep = toks[last - 1].text;
        if ((sep == "." || sep == "->" || sep == "::") &&
            toks[last - 2].kind == TokenKind::kIdentifier) {
            *object = toks[last - 2].text;
        }
    }
    return true;
}

struct Frame {
    enum class Kind { kNamespace, kRecord, kFunction, kBlock };
    Kind kind;
    std::string name;       // namespace path segment or record name
    std::size_t fn_index = 0;  // functions.size() index for kFunction
};

class Parser {
  public:
    Parser(std::string path, std::string_view source) {
        model_.path = std::move(path);
        model_.lexed = tool::lex(source);
    }

    FileModel run() {
        const std::vector<Token>& toks = model_.lexed.tokens;
        // Qualified references come from one flat scan so that using-decls,
        // template arguments and macro bodies count too.
        for (std::size_t i = 0; i < toks.size(); ++i) record_qualified_ref(i);
        std::size_t i = 0;
        while (i < toks.size()) {
            const Token& t = toks[i];
            if (t.kind == TokenKind::kPunct && t.text == "#") {
                i = handle_directive(i);
                continue;
            }
            if (t.kind == TokenKind::kIdentifier) {
                record_source_hit(i);
                if (t.text == "template") {
                    i = skip_angles(toks, i + 1);
                    if (i > 0 && is_punct(toks[i - 1], ">")) continue;
                    ++i;
                    continue;
                }
                if (t.text == "namespace" && current_fn_ == nullptr) {
                    i = handle_namespace(i);
                    continue;
                }
                if (t.text == "enum" && current_fn_ == nullptr) {
                    i = handle_enum(i);
                    continue;
                }
                if (t.text == "using") {  // skip whole using-decl/alias
                    while (i < toks.size() && !is_punct(toks[i], ";")) ++i;
                    stmt_start_ = i + 1;
                    ++i;
                    continue;
                }
                if (is_mutex_decl(i)) {
                    i = handle_mutex_decl(i);
                    continue;
                }
                if (is_container_decl(i)) {
                    i = handle_container_decl(i);
                    continue;
                }
                if (current_fn_ != nullptr) {
                    std::size_t next = handle_body_token(i);
                    if (next != i) {
                        i = next;
                        continue;
                    }
                }
            }
            if (t.kind == TokenKind::kPunct) {
                if (t.text == "{") {
                    handle_open_brace(i);
                    stmt_start_ = i + 1;
                } else if (t.text == "}") {
                    handle_close_brace();
                    stmt_start_ = i + 1;
                } else if (t.text == ";") {
                    stmt_start_ = i + 1;
                }
            }
            ++i;
        }
        return std::move(model_);
    }

  private:
    const std::vector<Token>& toks() const { return model_.lexed.tokens; }

    // --- directives ------------------------------------------------------

    std::size_t handle_directive(std::size_t i) {
        const std::size_t line = toks()[i].line;
        if (i + 2 < toks().size() && is_ident(toks()[i + 1], "include") &&
            toks()[i + 2].kind == TokenKind::kString &&
            toks()[i + 2].line == line) {
            // The lexer already strips the surrounding quotes.
            model_.includes.push_back({toks()[i + 2].text, line});
        }
        // Skip the directive, following backslash line continuations (the
        // crypto kernels carry multi-line round macros whose bodies must
        // not leak into scope tracking). Macro bodies still contribute
        // direct sources.
        std::size_t j = i;
        std::size_t cur_line = line;
        while (j < toks().size()) {
            const Token* last = nullptr;
            while (j < toks().size() && toks()[j].line == cur_line) {
                last = &toks()[j];
                ++j;
            }
            if (last != nullptr && last->kind == TokenKind::kPunct &&
                last->text == "\\" && j < toks().size()) {
                cur_line = toks()[j].line;
                continue;
            }
            break;
        }
        for (std::size_t k = i + 2; k < j; ++k) {
            if (toks()[k].kind == TokenKind::kIdentifier) record_source_hit(k);
        }
        stmt_start_ = j;
        return j;
    }

    // --- namespaces ------------------------------------------------------

    std::size_t handle_namespace(std::size_t i) {
        std::size_t j = i + 1;
        std::string name;
        while (j < toks().size()) {
            if (toks()[j].kind == TokenKind::kIdentifier &&
                toks()[j].text != "inline") {
                if (!name.empty()) name += "::";
                name += toks()[j].text;
                ++j;
            } else if (is_punct(toks()[j], "::")) {
                ++j;
            } else {
                break;
            }
        }
        if (j < toks().size() && is_punct(toks()[j], "=")) {
            while (j < toks().size() && !is_punct(toks()[j], ";")) ++j;
            stmt_start_ = j + 1;
            return j + 1;
        }
        if (j < toks().size() && is_punct(toks()[j], "{")) {
            stack_.push_back({Frame::Kind::kNamespace, name, 0});
            stmt_start_ = j + 1;
            return j + 1;
        }
        return i + 1;
    }

    // --- enums -----------------------------------------------------------

    std::size_t handle_enum(std::size_t i) {
        std::size_t j = i + 1;
        while (j < toks().size() &&
               (is_ident(toks()[j], "class") || is_ident(toks()[j], "struct"))) {
            ++j;
        }
        EnumDef def;
        def.line = toks()[i].line;
        if (j < toks().size() && toks()[j].kind == TokenKind::kIdentifier) {
            def.name = toks()[j].text;
            ++j;
        }
        if (j < toks().size() && is_punct(toks()[j], ":")) {
            ++j;  // underlying type: idents/:: until { or ;
            while (j < toks().size() && !is_punct(toks()[j], "{") &&
                   !is_punct(toks()[j], ";")) {
                ++j;
            }
        }
        if (j >= toks().size() || !is_punct(toks()[j], "{")) {
            // forward declaration or elaborated use (`enum Foo x;`)
            stmt_start_ = j;
            return j;
        }
        const std::size_t end = skip_group(toks(), j);
        // Enumerators: identifiers at the start of each comma-separated item.
        bool expect_name = true;
        int depth = 0;
        for (std::size_t k = j + 1; k + 1 < end; ++k) {
            const Token& t = toks()[k];
            if (t.kind == TokenKind::kPunct) {
                if (t.text == "(" || t.text == "{" || t.text == "[") ++depth;
                if (t.text == ")" || t.text == "}" || t.text == "]") --depth;
                if (t.text == "," && depth == 0) expect_name = true;
                continue;
            }
            if (expect_name && t.kind == TokenKind::kIdentifier && depth == 0) {
                def.enumerators.push_back(t.text);
                expect_name = false;
            }
        }
        if (!def.name.empty()) {
            def.qualified = scope_path(def.name);
            model_.enums.push_back(std::move(def));
        }
        stmt_start_ = end;
        return end;
    }

    // --- declarations ----------------------------------------------------

    // `std::mutex name` (possibly `mutable`); requires std:: qualification
    // so template args like lock_guard<std::mutex> do not match (there the
    // next token is ">", not an identifier).
    bool is_mutex_decl(std::size_t i) const {
        if (!is_ident(toks()[i], "mutex") &&
            !is_ident(toks()[i], "shared_mutex") &&
            !is_ident(toks()[i], "recursive_mutex")) {
            return false;
        }
        if (i < 2 || !is_punct(toks()[i - 1], "::") ||
            !is_ident(toks()[i - 2], "std")) {
            return false;
        }
        return i + 1 < toks().size() &&
               toks()[i + 1].kind == TokenKind::kIdentifier;
    }

    std::size_t handle_mutex_decl(std::size_t i) {
        MutexDecl decl;
        decl.class_name = current_record();
        decl.name = toks()[i + 1].text;
        decl.line = toks()[i + 1].line;
        model_.mutexes.push_back(std::move(decl));
        return i + 2;
    }

    // `[std::]kind<...> [&*const] name` for standard associative containers.
    bool is_container_decl(std::size_t i) const {
        if (toks()[i].kind != TokenKind::kIdentifier ||
            !contains(kContainerKinds, std::string_view(toks()[i].text))) {
            return false;
        }
        return i + 1 < toks().size() && is_punct(toks()[i + 1], "<");
    }

    std::size_t handle_container_decl(std::size_t i) {
        const std::string kind = toks()[i].text;
        std::size_t j = skip_angles(toks(), i + 1);
        if (j == i + 1) return i + 1;  // comparison, not a template
        while (j < toks().size() &&
               (is_punct(toks()[j], "&") || is_punct(toks()[j], "*") ||
                is_ident(toks()[j], "const"))) {
            ++j;
        }
        if (j < toks().size() && toks()[j].kind == TokenKind::kIdentifier) {
            ContainerDecl decl;
            decl.class_name = current_record();
            decl.name = toks()[j].text;
            decl.kind = kind;
            decl.unordered = kind.rfind("unordered_", 0) == 0;
            decl.line = toks()[j].line;
            model_.containers.push_back(std::move(decl));
        }
        return j;
    }

    // --- scope tracking --------------------------------------------------

    std::string current_record() const {
        for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
            if (it->kind == Frame::Kind::kRecord) return it->name;
        }
        return "";
    }

    std::string namespace_path() const {
        std::string out;
        for (const Frame& f : stack_) {
            if (f.kind != Frame::Kind::kNamespace || f.name.empty()) continue;
            if (!out.empty()) out += "::";
            out += f.name;
        }
        return out;
    }

    std::string scope_path(const std::string& leaf) const {
        std::string out = namespace_path();
        const std::string rec = current_record();
        if (!rec.empty()) {
            if (!out.empty()) out += "::";
            out += rec;
        }
        if (!out.empty()) out += "::";
        return out + leaf;
    }

    void handle_open_brace(std::size_t i) {
        if (current_fn_ != nullptr) {
            stack_.push_back({Frame::Kind::kBlock, "", 0});
            return;
        }
        // Classify by the statement prefix [stmt_start_, i).
        std::string record_kw_name;
        bool has_namespace = false;
        bool has_record = false;
        bool has_extern_str = false;
        std::size_t first_paren = toks().size();
        bool eq_before_paren = false;
        for (std::size_t k = stmt_start_; k < i && k < toks().size(); ++k) {
            const Token& t = toks()[k];
            if (t.kind == TokenKind::kIdentifier) {
                if (t.text == "namespace") has_namespace = true;
                if (t.text == "struct" || t.text == "class" ||
                    t.text == "union") {
                    has_record = true;
                    if (k + 1 < i &&
                        toks()[k + 1].kind == TokenKind::kIdentifier) {
                        record_kw_name = toks()[k + 1].text;
                    }
                } else if (t.text == "extern" && k + 1 < i &&
                           toks()[k + 1].kind == TokenKind::kString) {
                    has_extern_str = true;
                }
            } else if (t.kind == TokenKind::kPunct) {
                if (t.text == "<") {
                    const std::size_t past = skip_angles(toks(), k);
                    if (past > k) k = past - 1;
                    continue;
                }
                if (t.text == "=" && first_paren == toks().size()) {
                    eq_before_paren = true;
                }
                if (t.text == "(" && first_paren == toks().size()) {
                    first_paren = k;
                }
            }
        }
        if (has_namespace || has_extern_str) {
            stack_.push_back({Frame::Kind::kNamespace, "", 0});
            return;
        }
        if (has_record && first_paren == toks().size()) {
            stack_.push_back({Frame::Kind::kRecord, record_kw_name, 0});
            return;
        }
        if (first_paren < toks().size() && !eq_before_paren) {
            // Function definition: name path sits directly before the first
            // top-level '('.
            std::string name;
            std::size_t p = first_paren;
            if (p >= 1 && toks()[p - 1].kind == TokenKind::kIdentifier) {
                name = toks()[p - 1].text;
                if (p >= 2 && is_ident(toks()[p - 2], "operator")) {
                    name = "operator " + name;
                    --p;
                }
            } else if (p >= 2 && toks()[p - 1].kind == TokenKind::kPunct &&
                       is_ident(toks()[p - 2], "operator")) {
                name = "operator" + toks()[p - 1].text;
                --p;
            } else if (p >= 1 && is_punct(toks()[p - 1], "~")) {
                name = "~";
            }
            if (!name.empty() && name != "~") {
                begin_function(name, qualifier_before(toks(), p - 1),
                               toks()[first_paren].line);
                return;
            }
        }
        // Expression brace (brace init, array literal): neutral block.
        stack_.push_back({Frame::Kind::kBlock, "", 0});
    }

    void begin_function(const std::string& name, const std::string& qualifier,
                        std::size_t line) {
        FunctionDef fn;
        fn.name = name;
        fn.ns = namespace_path();
        std::string cls = current_record();
        if (cls.empty() && !qualifier.empty()) cls = qualifier;
        fn.class_name = cls;
        fn.qualified = fn.ns;
        if (!cls.empty()) {
            if (!fn.qualified.empty()) fn.qualified += "::";
            fn.qualified += cls;
        }
        if (!fn.qualified.empty()) fn.qualified += "::";
        fn.qualified += name;
        fn.line = line;
        model_.functions.push_back(std::move(fn));
        stack_.push_back(
            {Frame::Kind::kFunction, name, model_.functions.size() - 1});
        current_fn_ = &model_.functions.back();
        lock_stack_.clear();
    }

    void handle_close_brace() {
        if (stack_.empty()) return;
        const Frame top = stack_.back();
        stack_.pop_back();
        if (top.kind == Frame::Kind::kFunction) {
            current_fn_ = nullptr;
            lock_stack_.clear();
        } else if (current_fn_ != nullptr) {
            // Leaving a block: locks scoped to it are released.
            while (!lock_stack_.empty() &&
                   lock_stack_.back().depth > stack_.size()) {
                lock_stack_.pop_back();
            }
        }
    }

    // --- body extraction -------------------------------------------------

    // Handles one identifier token inside a function body. Returns the next
    // index to resume at, or `i` unchanged when the token is uninteresting.
    std::size_t handle_body_token(std::size_t i) {
        const Token& t = toks()[i];
        if (contains(kLockGuards, std::string_view(t.text))) {
            const std::size_t next = handle_lock_guard(i);
            if (next != i) return next;
        }
        if (t.text == "for" && i + 1 < toks().size() &&
            is_punct(toks()[i + 1], "(")) {
            handle_range_for(i + 1);
            return i;  // body tokens still stream through the main loop
        }
        record_iteration(i);
        record_call(i);
        return i;
    }

    std::size_t handle_lock_guard(std::size_t i) {
        std::size_t j = skip_angles(toks(), i + 1);
        // Guard variable name (skip; a nameless temporary guard is a bug
        // clang-tidy's bugprone-unused-raii owns).
        if (j < toks().size() && toks()[j].kind == TokenKind::kIdentifier) ++j;
        if (j >= toks().size() || !is_punct(toks()[j], "(")) return i;
        const std::size_t end = skip_group(toks(), j);
        const bool scoped = toks()[i].text == "scoped_lock";
        // Split arguments at top-level commas.
        std::vector<std::pair<std::size_t, std::size_t>> args;
        std::size_t arg_begin = j + 1;
        int depth = 0;
        for (std::size_t k = j + 1; k + 1 < end; ++k) {
            const Token& t = toks()[k];
            if (t.kind != TokenKind::kPunct) continue;
            if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
            if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
            if (t.text == "," && depth == 0) {
                args.emplace_back(arg_begin, k);
                arg_begin = k + 1;
            }
        }
        if (arg_begin < end - 1) args.emplace_back(arg_begin, end - 1);
        if (args.empty()) return end;

        const std::size_t group = (scoped && args.size() > 1)
                                      ? next_group_++
                                      : LockSite::kNoGroup;
        std::vector<std::size_t> held;
        for (const HeldLock& h : lock_stack_) held.push_back(h.index);
        for (const auto& [b, e] : args) {
            LockSite site;
            if (!trailing_path(toks(), b, e, &site.object, &site.member)) {
                continue;
            }
            site.line = toks()[b].line;
            site.col = toks()[b].col;
            site.held_before = held;
            site.group = group;
            current_fn_->locks.push_back(site);
            lock_stack_.push_back(
                {current_fn_->locks.size() - 1, stack_.size()});
        }
        return end;
    }

    // `for (decl : range)` — records the range expression's trailing path.
    void handle_range_for(std::size_t open) {
        const std::size_t end = skip_group(toks(), open);
        int depth = 0;
        for (std::size_t k = open + 1; k + 1 < end; ++k) {
            const Token& t = toks()[k];
            if (t.kind != TokenKind::kPunct) continue;
            if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
            if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
            if (t.text == ":" && depth == 0) {
                std::string object;
                std::string member;
                if (trailing_path(toks(), k + 1, end - 1, &object, &member)) {
                    current_fn_->iterations.push_back(
                        {member, toks()[k].line, toks()[k].col});
                }
                return;
            }
            if (t.text == ";" && depth == 0) return;  // classic for
        }
    }

    // The one nondeterminism-source detector: hits land on the enclosing
    // function (taint seeds) or, outside any body, on the file.
    void record_source_hit(std::size_t i) {
        const Token& t = toks()[i];
        std::vector<SourceHit>& sink =
            current_fn_ != nullptr ? current_fn_->sources : model_.sources;
        const Token* before = i >= 1 ? &toks()[i - 1] : nullptr;
        const bool member = before != nullptr &&
                            (is_punct(*before, ".") || is_punct(*before, "->"));
        const bool called =
            i + 1 < toks().size() && is_punct(toks()[i + 1], "(");
        if (!member && contains(kDirectSources, std::string_view(t.text))) {
            sink.push_back({t.text, t.line, t.col});
            return;
        }
        if (t.text == "now" && before != nullptr && is_punct(*before, "::") &&
            called) {
            sink.push_back({"::now", t.line, t.col});
            return;
        }
        if ((t.text == "time" || t.text == "clock") && called) {
            const bool std_qualified = i >= 2 && is_punct(*before, "::") &&
                                       is_ident(toks()[i - 2], "std");
            const bool expr_context =
                before == nullptr ||
                ((before->kind == TokenKind::kPunct ||
                  is_ident(*before, "return")) &&
                 contains(kExprContextPrev, std::string_view(before->text)));
            if (std_qualified || expr_context) {
                sink.push_back({t.text + "()", t.line, t.col});
            }
            return;
        }
        if (t.text == "hash" && i + 1 < toks().size() &&
            is_punct(toks()[i + 1], "<")) {
            const std::size_t end = skip_angles(toks(), i + 1);
            for (std::size_t k = i + 2; k + 1 < end; ++k) {
                if (is_punct(toks()[k], "*")) {
                    sink.push_back({"pointer-hash", t.line, t.col});
                    return;
                }
            }
        }
    }

    void record_iteration(std::size_t i) {
        const Token& t = toks()[i];
        if (!contains(kIterationMembers, std::string_view(t.text))) return;
        if (i + 1 >= toks().size() || !is_punct(toks()[i + 1], "(")) return;
        if (i < 2) return;
        const Token& sep = toks()[i - 1];
        if (!is_punct(sep, ".") && !is_punct(sep, "->")) return;
        if (toks()[i - 2].kind != TokenKind::kIdentifier) return;
        current_fn_->iterations.push_back(
            {toks()[i - 2].text, t.line, t.col});
    }

    void record_call(std::size_t i) {
        const Token& t = toks()[i];
        std::size_t after = i + 1;
        if (after < toks().size() && is_punct(toks()[after], "<")) {
            const std::size_t past = skip_angles(toks(), after);
            if (past != after) after = past;
        }
        if (after >= toks().size() || !is_punct(toks()[after], "(")) return;
        if (contains(kNotCalls, std::string_view(t.text))) return;
        CallSite call;
        call.name = t.text;
        call.line = t.line;
        call.col = t.col;
        if (i >= 1 &&
            (is_punct(toks()[i - 1], ".") || is_punct(toks()[i - 1], "->"))) {
            call.member_call = true;
        } else {
            call.qualifier = qualifier_before(toks(), i);
        }
        // First argument when it is a plain (possibly qualified) name.
        std::size_t k = after + 1;
        std::string arg;
        while (k < toks().size()) {
            if (toks()[k].kind == TokenKind::kIdentifier) {
                arg += toks()[k].text;
            } else if (is_punct(toks()[k], "::")) {
                arg += "::";
            } else {
                break;
            }
            ++k;
        }
        if (!arg.empty() && k < toks().size() &&
            (is_punct(toks()[k], ",") || is_punct(toks()[k], ")"))) {
            call.first_arg = arg;
        }
        for (const HeldLock& h : lock_stack_) call.held_locks.push_back(h.index);
        current_fn_->calls.push_back(std::move(call));
    }

    void record_qualified_ref(std::size_t i) {
        // Record `a::b[::c...]` chains starting at token i when i is the
        // chain head (previous token is not part of one).
        const Token& t = toks()[i];
        if (t.kind != TokenKind::kIdentifier) return;
        if (i >= 1 && is_punct(toks()[i - 1], "::")) return;  // not the head
        if (i + 2 >= toks().size() || !is_punct(toks()[i + 1], "::")) return;
        std::vector<std::string> parts = {t.text};
        std::size_t j = i + 1;
        while (j + 1 < toks().size() && is_punct(toks()[j], "::") &&
               toks()[j + 1].kind == TokenKind::kIdentifier) {
            parts.push_back(toks()[j + 1].text);
            j += 2;
        }
        if (parts.size() < 2) return;
        // Every contiguous 2+-part suffix: "a::b::c" also yields "b::c" so
        // checks can match on `Enum::kValue` regardless of namespacing.
        for (std::size_t s = 0; s + 1 < parts.size(); ++s) {
            std::string joined = parts[s];
            for (std::size_t p = s + 1; p < parts.size(); ++p) {
                joined += "::" + parts[p];
            }
            model_.qualified_refs.emplace(std::move(joined), t.line);
        }
    }

    struct HeldLock {
        std::size_t index;  // into current_fn_->locks
        std::size_t depth;  // stack_.size() at acquisition
    };

    FileModel model_;
    std::vector<Frame> stack_;
    FunctionDef* current_fn_ = nullptr;
    std::vector<HeldLock> lock_stack_;
    std::size_t next_group_ = 0;
    std::size_t stmt_start_ = 0;
};

}  // namespace

FileModel parse_file(std::string path, std::string_view source) {
    return Parser(std::move(path), source).run();
}

std::string module_of(const std::string& path) {
    if (path.rfind("src/", 0) != 0) return "";
    const std::size_t begin = 4;
    const std::size_t slash = path.find('/', begin);
    if (slash == std::string::npos) return "";
    return path.substr(begin, slash - begin);
}

}  // namespace dlsbl::analyze
