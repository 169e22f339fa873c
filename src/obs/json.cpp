#include "obs/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace dlsbl::obs {

void append_json_string(std::string& out, std::string_view raw) {
    out += '"';
    // Bytes that need no escape are copied a run at a time.
    std::size_t run = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
        const auto byte = static_cast<unsigned char>(raw[i]);
        if (byte >= 0x20 && byte < 0x80 && byte != '"' && byte != '\\') continue;
        out.append(raw, run, i - run);
        run = i + 1;
        switch (byte) {
            case '"': out += "\\\""; continue;
            case '\\': out += "\\\\"; continue;
            case '\n': out += "\\n"; continue;
            case '\r': out += "\\r"; continue;
            case '\t': out += "\\t"; continue;
            case '\b': out += "\\b"; continue;
            case '\f': out += "\\f"; continue;
            default: break;
        }
        // Other control characters must be escaped; bytes >= 0x80 are
        // escaped too so the output is valid JSON even for non-UTF8 input.
        constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[byte >> 4], kHex[byte & 0xf]};
        out.append(escape, sizeof(escape));
    }
    out.append(raw, run);
    out += '"';
}

std::string json_escape(std::string_view raw) {
    std::string out;
    out.reserve(raw.size() + 2);
    append_json_string(out, raw);
    return out;
}

void append_json_number(std::string& out, double value) {
    if (!std::isfinite(value)) {
        out += "null";
        return;
    }
    char buf[32];
    // No precision below the digit count of the shortest round trip can read
    // back, so the search starts there. (Scientific form: the plain shortest
    // form may print a large integer's exact digits instead.)
    char* const shortest_end =
        std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::scientific).ptr;
    const auto digits = std::count_if(buf, std::find(buf, shortest_end, 'e'),
                                      [](char c) { return c >= '0' && c <= '9'; });
    for (auto precision = static_cast<int>(digits);; ++precision) {
        char* const end = std::to_chars(buf, buf + sizeof(buf), value,
                                        std::chars_format::general, precision)
                              .ptr;
        double parsed = 0.0;
        if (precision < 17) std::from_chars(buf, end, parsed);
        if (precision == 17 || parsed == value) {
            out.append(buf, end);
            return;
        }
    }
}

std::string json_number(double value) {
    std::string out;
    append_json_number(out, value);
    return out;
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (kind != Kind::kObject) return nullptr;
    for (const auto& [name, value] : object) {
        if (name == key) return &value;
    }
    return nullptr;
}

namespace {

class Parser {
 public:
    explicit Parser(std::string_view text) : text_(text) {}

    std::optional<JsonValue> parse() {
        auto value = parse_value();
        if (!value) return std::nullopt;
        skip_whitespace();
        if (pos_ != text_.size()) return std::nullopt;  // trailing garbage
        return value;
    }

 private:
    void skip_whitespace() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
    [[nodiscard]] char peek() const { return text_[pos_]; }

    bool consume_literal(std::string_view literal) {
        if (text_.substr(pos_, literal.size()) != literal) return false;
        pos_ += literal.size();
        return true;
    }

    std::optional<JsonValue> parse_value() {
        skip_whitespace();
        if (at_end()) return std::nullopt;
        switch (peek()) {
            case '{': return parse_object();
            case '[': return parse_array();
            case '"': return parse_string_value();
            case 't': {
                JsonValue v;
                v.kind = JsonValue::Kind::kBool;
                v.boolean = true;
                if (!consume_literal("true")) return std::nullopt;
                return v;
            }
            case 'f': {
                JsonValue v;
                v.kind = JsonValue::Kind::kBool;
                if (!consume_literal("false")) return std::nullopt;
                return v;
            }
            case 'n':
                if (!consume_literal("null")) return std::nullopt;
                return JsonValue{};
            default:
                return parse_number();
        }
    }

    std::optional<JsonValue> parse_number() {
        const std::size_t start = pos_;
        if (!at_end() && peek() == '-') ++pos_;
        const std::size_t digits_start = pos_;
        while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
        if (pos_ == digits_start) return std::nullopt;
        if (!at_end() && peek() == '.') {
            ++pos_;
            const std::size_t frac_start = pos_;
            while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
            if (pos_ == frac_start) return std::nullopt;
        }
        if (!at_end() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
            const std::size_t exp_start = pos_;
            while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
            if (pos_ == exp_start) return std::nullopt;
        }
        JsonValue v;
        v.kind = JsonValue::Kind::kNumber;
        v.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                               nullptr);
        return v;
    }

    static int hex_digit(char c) {
        if (c >= '0' && c <= '9') return c - '0';
        if (c >= 'a' && c <= 'f') return c - 'a' + 10;
        if (c >= 'A' && c <= 'F') return c - 'A' + 10;
        return -1;
    }

    std::optional<std::string> parse_string() {
        if (at_end() || peek() != '"') return std::nullopt;
        ++pos_;
        std::string out;
        while (true) {
            if (at_end()) return std::nullopt;  // unterminated
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (c != '\\') {
                // Raw control characters are invalid inside JSON strings.
                if (static_cast<unsigned char>(c) < 0x20) return std::nullopt;
                out += c;
                continue;
            }
            if (at_end()) return std::nullopt;
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': {
                    if (pos_ + 4 > text_.size()) return std::nullopt;
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        const int d = hex_digit(text_[pos_ + static_cast<std::size_t>(k)]);
                        if (d < 0) return std::nullopt;
                        code = code * 16 + static_cast<unsigned>(d);
                    }
                    pos_ += 4;
                    // Our emitter only produces \u00XX (single bytes); decode
                    // those back to the byte. Larger codepoints get UTF-8.
                    if (code < 0x100) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                }
                default:
                    return std::nullopt;
            }
        }
    }

    std::optional<JsonValue> parse_string_value() {
        auto s = parse_string();
        if (!s) return std::nullopt;
        JsonValue v;
        v.kind = JsonValue::Kind::kString;
        v.string = std::move(*s);
        return v;
    }

    std::optional<JsonValue> parse_array() {
        ++pos_;  // '['
        JsonValue v;
        v.kind = JsonValue::Kind::kArray;
        skip_whitespace();
        if (!at_end() && peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            auto element = parse_value();
            if (!element) return std::nullopt;
            v.array.push_back(std::move(*element));
            skip_whitespace();
            if (at_end()) return std::nullopt;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            return std::nullopt;
        }
    }

    std::optional<JsonValue> parse_object() {
        ++pos_;  // '{'
        JsonValue v;
        v.kind = JsonValue::Kind::kObject;
        skip_whitespace();
        if (!at_end() && peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_whitespace();
            auto key = parse_string();
            if (!key) return std::nullopt;
            skip_whitespace();
            if (at_end() || peek() != ':') return std::nullopt;
            ++pos_;
            auto value = parse_value();
            if (!value) return std::nullopt;
            v.object.emplace_back(std::move(*key), std::move(*value));
            skip_whitespace();
            if (at_end()) return std::nullopt;
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            return std::nullopt;
        }
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> json_parse(std::string_view text) {
    return Parser(text).parse();
}

}  // namespace dlsbl::obs
