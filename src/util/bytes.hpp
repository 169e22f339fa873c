// Byte-buffer helpers and a tiny deterministic serializer.
//
// All protocol messages that get digitally signed are first flattened to a
// canonical byte encoding by ByteWriter, so two honest implementations always
// sign/verify identical bytes. Little-endian, length-prefixed strings.
#pragma once

#include <charconv>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dlsbl::util {

using Bytes = std::vector<std::uint8_t>;

// An immutable buffer shared by every holder — all recipients of one
// broadcast and the bid tables that keep it: one allocation, any number of
// readers.
using SharedBytes = std::shared_ptr<const Bytes>;

inline SharedBytes share(Bytes bytes) {
    return std::make_shared<const Bytes>(std::move(bytes));
}

std::string to_hex(std::span<const std::uint8_t> data);
Bytes from_hex(std::string_view hex);

// Appends `value` in decimal, as std::to_string prints it, without a
// temporary string.
inline void append_decimal(std::string& out, std::uint64_t value) {
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

inline Bytes to_bytes(std::string_view text) {
    return Bytes(text.begin(), text.end());
}

class ByteWriter {
 public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u32(std::uint32_t v) {
        for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    // Doubles are serialized by bit pattern; all participants run IEEE-754.
    void f64(double v);
    void str(std::string_view s) {
        u64(s.size());
        buf_.insert(buf_.end(), s.begin(), s.end());
    }
    void bytes(std::span<const std::uint8_t> b) {
        u64(b.size());
        buf_.insert(buf_.end(), b.begin(), b.end());
    }
    void raw(std::span<const std::uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

    [[nodiscard]] const Bytes& data() const noexcept { return buf_; }
    [[nodiscard]] Bytes take() noexcept { return std::move(buf_); }

 private:
    Bytes buf_;
};

class ByteReader {
 public:
    explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() { return take(1)[0]; }
    std::uint32_t u32() {
        auto b = take(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
        return v;
    }
    std::uint64_t u64() {
        auto b = take(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
        return v;
    }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
    double f64();
    std::string str() {
        const auto n = u64();
        auto b = take(n);
        return std::string(b.begin(), b.end());
    }
    Bytes bytes() {
        const auto n = u64();
        auto b = take(n);
        return Bytes(b.begin(), b.end());
    }

    [[nodiscard]] bool exhausted() const noexcept { return pos_ == data_.size(); }
    [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }

 private:
    std::span<const std::uint8_t> take(std::size_t n) {
        if (pos_ + n > data_.size()) throw std::out_of_range("ByteReader: underflow");
        auto view = data_.subspan(pos_, n);
        pos_ += n;
        return view;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
};

}  // namespace dlsbl::util
