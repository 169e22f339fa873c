// Comment/string-aware C++ tokenizer for tools/analyze/dlsbl_analyze.
//
// This is deliberately NOT a compiler front end (no libclang dependency —
// the toolchain need not ship one, and the analyzer doesn't need types).
// It produces a flat token stream with comments and literals resolved,
// which is exactly enough to run the analyzer's per-file token rules and
// feed its subset parser without false positives from banned names
// appearing in comments, strings, or macros' documentation.
//
// The lexer also collects `DLSBL_LINT_ALLOW(id[,id...])` markers from
// comments: a marker suppresses the named finding ids on its own line, and —
// when the comment is the only thing on its line — on the following line too
// (for sites where the offending line has no room for a trailing comment).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace dlsbl::tool {

enum class TokenKind {
    kIdentifier,   // identifiers and keywords (keyword_set() tells them apart)
    kNumber,       // pp-number: integer or floating literal, any base/suffix
    kString,       // "...", R"(...)", prefixed variants; text excludes quotes
    kChar,         // '...'
    kPunct,        // operators/punctuation, longest-match ("==", "::", "->")
};

struct Token {
    TokenKind kind = TokenKind::kPunct;
    std::string text;       // literal spelling (string/char: contents only)
    std::size_t line = 1;   // 1-based
    std::size_t col = 1;    // 1-based, in bytes
};

[[nodiscard]] inline bool is_ident(const Token& t, std::string_view text) {
    return t.kind == TokenKind::kIdentifier && t.text == text;
}

[[nodiscard]] inline bool is_punct(const Token& t, std::string_view text) {
    return t.kind == TokenKind::kPunct && t.text == text;
}

// True for a floating-point literal spelling: a decimal literal containing
// '.' or a decimal exponent (1.5, .5, 1e9, 2.f), or a hex float (0x1p3).
// Integer literals of every base, including 0x1E, are not floats.
[[nodiscard]] bool is_float_literal(std::string_view text);

struct LexedFile {
    std::vector<Token> tokens;
    // line -> finding ids suppressed on that line via DLSBL_LINT_ALLOW.
    std::map<std::size_t, std::set<std::string>> allow;
};

// Tokenizes `source`. Never fails: bytes that fit no token class are
// emitted as single-character kPunct tokens so rules still see positions.
[[nodiscard]] LexedFile lex(std::string_view source);

}  // namespace dlsbl::tool
