#include "common/lexer.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace dlsbl::tool {
namespace {

[[nodiscard]] bool is_ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

[[nodiscard]] bool is_digit(char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
}

// Multi-character operators, longest first so greedy matching is correct.
constexpr std::array<std::string_view, 37> kOperators = {
    "<<=", ">>=", "...", "->*", "<=>",
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*", "##",
    "<", ">", "=", "!", "&", "|", "^", "+", "-", ".",
};

// Scans a comment body for DLSBL_LINT_ALLOW(rule[,rule...]) markers and
// records the named rules against `line` (and `line + 1` when the comment
// stood alone on its line — see lexer.hpp).
void collect_allow_markers(std::string_view comment, std::size_t line,
                           bool comment_only_line, LexedFile* out) {
    constexpr std::string_view kMarker = "DLSBL_LINT_ALLOW(";
    std::size_t pos = 0;
    while ((pos = comment.find(kMarker, pos)) != std::string_view::npos) {
        pos += kMarker.size();
        const std::size_t close = comment.find(')', pos);
        if (close == std::string_view::npos) break;
        std::string_view args = comment.substr(pos, close - pos);
        while (!args.empty()) {
            const std::size_t comma = args.find(',');
            std::string_view rule = args.substr(0, comma);
            while (!rule.empty() && rule.front() == ' ') rule.remove_prefix(1);
            while (!rule.empty() && rule.back() == ' ') rule.remove_suffix(1);
            if (!rule.empty()) {
                out->allow[line].insert(std::string(rule));
                if (comment_only_line) out->allow[line + 1].insert(std::string(rule));
            }
            if (comma == std::string_view::npos) break;
            args.remove_prefix(comma + 1);
        }
        pos = close + 1;
    }
}

class Lexer {
 public:
    explicit Lexer(std::string_view source) : src_(source) {}

    LexedFile run() {
        while (pos_ < src_.size()) {
            const char c = src_[pos_];
            if (c == '\n') {
                advance();
            } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
                advance();
            } else if (c == '/' && peek(1) == '/') {
                line_comment();
            } else if (c == '/' && peek(1) == '*') {
                block_comment();
            } else if (is_raw_string_start()) {
                raw_string();
            } else if (c == '"' || (is_string_prefix() && quote_after_prefix() == '"')) {
                quoted(TokenKind::kString);
            } else if (is_char_literal_start()) {
                quoted(TokenKind::kChar);
            } else if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
                number();
            } else if (is_ident_start(c)) {
                identifier();
            } else {
                punct();
            }
        }
        return std::move(out_);
    }

 private:
    [[nodiscard]] char peek(std::size_t ahead = 0) const {
        return pos_ + ahead < src_.size() ? src_[pos_ + ahead] : '\0';
    }

    void advance() {
        if (src_[pos_] == '\n') {
            ++line_;
            col_ = 1;
            line_has_code_ = false;
        } else {
            ++col_;
        }
        ++pos_;
    }

    void advance_n(std::size_t n) {
        for (std::size_t i = 0; i < n && pos_ < src_.size(); ++i) advance();
    }

    void emit(TokenKind kind, std::string text, std::size_t line, std::size_t col) {
        out_.tokens.push_back(Token{kind, std::move(text), line, col});
        line_has_code_ = true;
    }

    void line_comment() {
        const std::size_t start_line = line_;
        const bool standalone = !line_has_code_;
        const std::size_t begin = pos_;
        while (pos_ < src_.size() && src_[pos_] != '\n') advance();
        collect_allow_markers(src_.substr(begin, pos_ - begin), start_line,
                              standalone, &out_);
    }

    void block_comment() {
        const std::size_t start_line = line_;
        const bool standalone = !line_has_code_;
        const std::size_t begin = pos_;
        advance_n(2);
        while (pos_ < src_.size() && !(peek() == '*' && peek(1) == '/')) advance();
        advance_n(2);
        // A block comment followed by code on its closing line is not
        // "standalone"; close enough to only honour single-line blocks.
        const bool single_line = line_ == start_line;
        collect_allow_markers(src_.substr(begin, pos_ - begin), start_line,
                              standalone && single_line, &out_);
    }

    // u8 / u / U / L string-literal prefixes (possibly before a raw string).
    [[nodiscard]] std::size_t prefix_len() const {
        if (peek() == 'u' && peek(1) == '8') return 2;
        if (peek() == 'u' || peek() == 'U' || peek() == 'L') return 1;
        return 0;
    }

    [[nodiscard]] bool is_string_prefix() const {
        const std::size_t n = prefix_len();
        return n > 0 && (peek(n) == '"' || (peek(n) == 'R' && peek(n + 1) == '"'));
    }

    [[nodiscard]] char quote_after_prefix() const {
        return peek(prefix_len());
    }

    [[nodiscard]] bool is_raw_string_start() const {
        const std::size_t n = prefix_len();
        if (peek(n) == 'R' && peek(n + 1) == '"') return true;
        return peek() == 'R' && peek(1) == '"';
    }

    // A ' starts a char literal unless it is a digit separator (1'000) —
    // i.e. unless the previous emitted token ended immediately before it
    // and was a number (handled inside number()), so here: any ' reached
    // at top level is a char literal. Identifier-adjacent ' (e.g. u'x')
    // is handled via the prefix check.
    [[nodiscard]] bool is_char_literal_start() const {
        if (peek() == '\'') return true;
        const std::size_t n = prefix_len();
        return n > 0 && peek(n) == '\'';
    }

    void raw_string() {
        const std::size_t tline = line_, tcol = col_;
        advance_n(prefix_len());
        advance();  // R
        advance();  // "
        std::string delim;
        while (pos_ < src_.size() && peek() != '(') {
            delim += peek();
            advance();
        }
        advance();  // (
        const std::string closer = ")" + delim + "\"";
        const std::size_t body_begin = pos_;
        const std::size_t end = src_.find(closer, pos_);
        const std::size_t body_end = end == std::string_view::npos ? src_.size() : end;
        while (pos_ < body_end) advance();
        advance_n(closer.size());
        emit(TokenKind::kString, std::string(src_.substr(body_begin, body_end - body_begin)),
             tline, tcol);
    }

    void quoted(TokenKind kind) {
        const std::size_t tline = line_, tcol = col_;
        advance_n(prefix_len());
        const char quote = peek();
        advance();
        const std::size_t begin = pos_;
        while (pos_ < src_.size() && peek() != quote && peek() != '\n') {
            if (peek() == '\\' && pos_ + 1 < src_.size()) advance();
            advance();
        }
        const std::size_t end = pos_;
        if (peek() == quote) advance();
        emit(kind, std::string(src_.substr(begin, end - begin)), tline, tcol);
    }

    void number() {
        const std::size_t tline = line_, tcol = col_;
        const std::size_t begin = pos_;
        // pp-number: digits, identifier chars, ', '.', and sign after e/E/p/P.
        advance();
        while (pos_ < src_.size()) {
            const char c = peek();
            if (is_ident_char(c) || c == '.' || c == '\'') {
                advance();
            } else if ((c == '+' || c == '-') && pos_ > begin) {
                const char prev = src_[pos_ - 1];
                if (prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P') {
                    advance();
                } else {
                    break;
                }
            } else {
                break;
            }
        }
        emit(TokenKind::kNumber, std::string(src_.substr(begin, pos_ - begin)),
             tline, tcol);
    }

    void identifier() {
        const std::size_t tline = line_, tcol = col_;
        const std::size_t begin = pos_;
        while (pos_ < src_.size() && is_ident_char(peek())) advance();
        emit(TokenKind::kIdentifier, std::string(src_.substr(begin, pos_ - begin)),
             tline, tcol);
    }

    void punct() {
        const std::size_t tline = line_, tcol = col_;
        const std::string_view rest = src_.substr(pos_);
        for (const std::string_view op : kOperators) {
            if (rest.substr(0, op.size()) == op) {
                advance_n(op.size());
                emit(TokenKind::kPunct, std::string(op), tline, tcol);
                return;
            }
        }
        const std::string one(1, peek());
        advance();
        emit(TokenKind::kPunct, one, tline, tcol);
    }

    std::string_view src_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t col_ = 1;
    bool line_has_code_ = false;
    LexedFile out_;
};

}  // namespace

bool is_float_literal(std::string_view text) {
    if (text.empty() || (!is_digit(text.front()) && text.front() != '.')) return false;
    const bool hex = text.size() > 1 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    if (hex) {
        // Hex literals are floats only with a p/P exponent (0x1.8p3).
        return text.find('p') != std::string_view::npos ||
               text.find('P') != std::string_view::npos;
    }
    if (text.find('.') != std::string_view::npos) return true;
    // Decimal exponent: an e/E followed by optional sign and a digit, so
    // integer suffixes like 0b1110 or digit separators don't confuse it.
    for (std::size_t i = 1; i < text.size(); ++i) {
        if ((text[i] == 'e' || text[i] == 'E') && i + 1 < text.size()) {
            std::size_t j = i + 1;
            if (text[j] == '+' || text[j] == '-') ++j;
            if (j < text.size() && is_digit(text[j])) return true;
        }
    }
    return false;
}

LexedFile lex(std::string_view source) {
    return Lexer(source).run();
}

}  // namespace dlsbl::tool
