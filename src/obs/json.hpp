// Minimal JSON support for the observability layer.
//
// Two halves:
//   * emission — append_json_string() turns arbitrary bytes (including
//     embedded quotes, backslashes, control characters and non-UTF8
//     payloads) into a valid double-quoted JSON string literal, and
//     append_json_number() formats a double as printf "%.*g" at the smallest
//     precision that reads back as the same double, so identical runs emit
//     byte-identical artifacts. Both append to the caller's buffer, so a
//     writer builds a whole document in one string; json_escape() and
//     json_number() return the same bytes as a new string;
//   * consumption — a small recursive-descent parser producing a JsonValue
//     DOM. It exists so tests can assert that every JSONL line and every
//     catapult export re-parses, without taking a third-party dependency.
//
// Bytes >= 0x80 are escaped as \u00XX (latin-1 mapping) rather than passed
// through, which keeps the output valid JSON even for non-UTF8 input; the
// parser decodes \u00XX back to the original byte, so escape+parse is an
// identity on arbitrary byte strings.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dlsbl::obs {

// Arbitrary bytes -> JSON string literal, quotes included.
void append_json_string(std::string& out, std::string_view raw);
std::string json_escape(std::string_view raw);

// printf "%.*g" of `value` in the C locale at the smallest precision (1..17)
// whose text parses back to the same double; made with std::to_chars, so it
// never depends on the process locale. Non-finite values (JSON has no
// inf/nan) become "null".
void append_json_number(std::string& out, double value);
std::string json_number(double value);

class JsonValue {
 public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;  // raw bytes (\u00XX decoded to single bytes)
    std::vector<JsonValue> array;
    // Insertion order preserved — field order is part of our schema.
    std::vector<std::pair<std::string, JsonValue>> object;

    // Object member lookup; nullptr when absent or not an object.
    [[nodiscard]] const JsonValue* find(std::string_view key) const;
};

// Parses `text` as exactly one JSON value (surrounding whitespace allowed);
// nullopt on any syntax error or trailing garbage.
std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace dlsbl::obs
