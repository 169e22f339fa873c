#include "util/rational.hpp"

#include <gtest/gtest.h>

namespace dlsbl::util {
namespace {

TEST(Rational, DefaultIsZero) {
    Rational r;
    EXPECT_TRUE(r.is_zero());
    EXPECT_EQ(r.to_string(), "0");
}

TEST(Rational, NormalizesOnConstruction) {
    Rational r{BigInt{6}, BigInt{8}};
    EXPECT_EQ(r.numerator().to_int64(), 3);
    EXPECT_EQ(r.denominator().to_int64(), 4);

    Rational neg{BigInt{3}, BigInt{-9}};
    EXPECT_EQ(neg.numerator().to_int64(), -1);
    EXPECT_EQ(neg.denominator().to_int64(), 3);

    Rational zero{BigInt{0}, BigInt{-5}};
    EXPECT_TRUE(zero.is_zero());
    EXPECT_EQ(zero.denominator().to_int64(), 1);
}

TEST(Rational, ZeroDenominatorThrows) {
    EXPECT_THROW((Rational{BigInt{1}, BigInt{0}}), std::domain_error);
}

TEST(Rational, Arithmetic) {
    Rational half = Rational::parse("1/2");
    Rational third = Rational::parse("1/3");
    EXPECT_EQ((half + third).to_string(), "5/6");
    EXPECT_EQ((half - third).to_string(), "1/6");
    EXPECT_EQ((half * third).to_string(), "1/6");
    EXPECT_EQ((half / third).to_string(), "3/2");
    EXPECT_EQ((-half).to_string(), "-1/2");
}

TEST(Rational, DivisionByZeroThrows) {
    EXPECT_THROW(Rational{1} / Rational{0}, std::domain_error);
    EXPECT_THROW(Rational{0}.reciprocal(), std::domain_error);
}

TEST(Rational, Comparison) {
    EXPECT_LT(Rational::parse("1/3"), Rational::parse("1/2"));
    EXPECT_GT(Rational::parse("-1/3"), Rational::parse("-1/2"));
    EXPECT_EQ(Rational::parse("2/4"), Rational::parse("1/2"));
}

TEST(Rational, FromDoubleIsExact) {
    EXPECT_EQ(Rational::from_double(0.5).to_string(), "1/2");
    EXPECT_EQ(Rational::from_double(0.25).to_string(), "1/4");
    EXPECT_EQ(Rational::from_double(3.0).to_string(), "3");
    EXPECT_EQ(Rational::from_double(-1.75).to_string(), "-7/4");
    // 0.1 is not exactly representable; round-trip through double must agree.
    const Rational tenth = Rational::from_double(0.1);
    EXPECT_DOUBLE_EQ(tenth.to_double(), 0.1);
    EXPECT_THROW(Rational::from_double(1.0 / 0.0), std::domain_error);
}

TEST(Rational, FieldAxiomsSpotChecks) {
    const Rational a = Rational::parse("7/12");
    const Rational b = Rational::parse("-5/9");
    const Rational c = Rational::parse("22/7");
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a * a.reciprocal(), Rational{1});
    EXPECT_EQ(a + (-a), Rational{0});
}

TEST(Rational, ToDouble) {
    EXPECT_DOUBLE_EQ(Rational::parse("1/2").to_double(), 0.5);
    EXPECT_DOUBLE_EQ(Rational::parse("-3/8").to_double(), -0.375);
}

// Parts too large for a double still convert: (2^3000 + 1) / 2^3001 is 1/2
// to within far less than an ulp, not inf / inf.
TEST(Rational, ToDoubleWithPartsBeyondDoubleRange) {
    const BigInt big = BigInt::pow(BigInt{2}, 3000);
    EXPECT_DOUBLE_EQ(Rational(big + BigInt{1}, big * BigInt{2}).to_double(), 0.5);
    EXPECT_DOUBLE_EQ(Rational((big + BigInt{1}).negated(), big * BigInt{2}).to_double(), -0.5);
    EXPECT_DOUBLE_EQ(Rational(big * BigInt{5}, big + BigInt{1}).to_double(), 5.0);
}

TEST(Rational, ParsePlainInteger) {
    EXPECT_EQ(Rational::parse("42").to_string(), "42");
    EXPECT_EQ(Rational::parse("-17").to_string(), "-17");
}

}  // namespace
}  // namespace dlsbl::util
