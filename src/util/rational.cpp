#include "util/rational.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dlsbl::util {

Rational::Rational(BigInt numerator, BigInt denominator)
    : num_(std::move(numerator)), den_(std::move(denominator)) {
    if (den_.is_zero()) throw std::domain_error("Rational: zero denominator");
    normalize();
}

void Rational::normalize() {
    if (den_.is_negative()) {
        num_ = num_.negated();
        den_ = den_.negated();
    }
    if (num_.is_zero()) {
        den_ = BigInt{1};
        return;
    }
    BigInt g = BigInt::gcd(num_, den_);
    if (g != BigInt{1}) {
        num_ /= g;
        den_ /= g;
    }
}

Rational Rational::parse(std::string_view text) {
    const auto slash = text.find('/');
    if (slash == std::string_view::npos) {
        return Rational{BigInt::from_decimal(text), BigInt{1}};
    }
    return Rational{BigInt::from_decimal(text.substr(0, slash)),
                    BigInt::from_decimal(text.substr(slash + 1))};
}

Rational Rational::from_double(double value) {
    if (!std::isfinite(value)) throw std::domain_error("Rational: non-finite double");
    // Exact zero (either sign) has no frexp decomposition; the comparison
    // is exact on purpose. DLSBL_LINT_ALLOW(float-equality)
    if (value == 0.0) return Rational{};
    int exp = 0;
    double mant = std::frexp(value, &exp);  // value = mant * 2^exp, |mant| in [0.5, 1)
    // Scale mantissa to an exact 53-bit integer.
    for (int i = 0; i < 53 && mant != std::floor(mant); ++i) {
        mant *= 2.0;
        --exp;
    }
    BigInt num{static_cast<std::int64_t>(mant)};
    if (exp >= 0) {
        return Rational{num * BigInt::pow(BigInt{2}, static_cast<std::uint64_t>(exp)),
                        BigInt{1}};
    }
    return Rational{std::move(num),
                    BigInt::pow(BigInt{2}, static_cast<std::uint64_t>(-exp))};
}

Rational& Rational::operator+=(const Rational& rhs) {
    num_ = num_ * rhs.den_ + rhs.num_ * den_;
    den_ *= rhs.den_;
    normalize();
    return *this;
}

Rational& Rational::operator-=(const Rational& rhs) {
    num_ = num_ * rhs.den_ - rhs.num_ * den_;
    den_ *= rhs.den_;
    normalize();
    return *this;
}

Rational& Rational::operator*=(const Rational& rhs) {
    num_ *= rhs.num_;
    den_ *= rhs.den_;
    normalize();
    return *this;
}

Rational& Rational::operator/=(const Rational& rhs) {
    if (rhs.is_zero()) throw std::domain_error("Rational: division by zero");
    num_ *= rhs.den_;
    den_ *= rhs.num_;
    normalize();
    return *this;
}

Rational Rational::operator-() const {
    Rational r = *this;
    r.num_ = r.num_.negated();
    return r;
}

Rational Rational::reciprocal() const {
    if (is_zero()) throw std::domain_error("Rational: reciprocal of zero");
    return Rational{den_, num_};
}

Rational Rational::abs() const {
    Rational r = *this;
    r.num_ = r.num_.abs();
    return r;
}

std::strong_ordering operator<=>(const Rational& a, const Rational& b) {
    return (a.num_ * b.den_) <=> (b.num_ * a.den_);
}

std::string Rational::to_string() const {
    if (den_ == BigInt{1}) return num_.to_string();
    return num_.to_string() + "/" + den_.to_string();
}

double Rational::to_double() const {
    // Numerator and denominator can each overflow a double (inf / inf = NaN)
    // long before their quotient does: exact solves at m = 512 carry
    // thousands of bits. Drop the same number of low bits from both first;
    // 1000 kept bits leave far more than a double's 53.
    constexpr std::size_t kKeptBits = 1000;
    const std::size_t bits = std::max(num_.bit_length(), den_.bit_length());
    if (bits <= kKeptBits) return num_.to_double() / den_.to_double();
    const BigInt scale = BigInt::pow(BigInt{2}, bits - kKeptBits);
    return (num_ / scale).to_double() / (den_ / scale).to_double();
}

}  // namespace dlsbl::util
