// Exact-rational verification of the DLT closed forms: Theorem 2.1 checked
// with equality, not tolerances.
#include <gtest/gtest.h>

#include <vector>

#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "dlt/linear_solver.hpp"
#include "util/rational.hpp"

namespace dlsbl::dlt {
namespace {

using util::Rational;

std::vector<Rational> rationals(std::initializer_list<const char*> texts) {
    std::vector<Rational> out;
    for (const char* t : texts) out.push_back(Rational::parse(t));
    return out;
}

void expect_exact_equal_finish(NetworkKind kind, const std::vector<Rational>& w,
                               const Rational& z) {
    const auto alpha = optimal_allocation_generic<Rational>(
        kind, std::span<const Rational>(w), z);
    // Allocation sums exactly to 1.
    Rational sum;
    for (const auto& a : alpha) {
        sum += a;
        EXPECT_GT(a, Rational{0});
    }
    EXPECT_EQ(sum, Rational{1});
    // All finishing times are *exactly* equal (Theorem 2.1).
    const auto t = finishing_times_generic<Rational>(kind, std::span<const Rational>(alpha),
                                                     std::span<const Rational>(w), z);
    for (std::size_t i = 1; i < t.size(); ++i) {
        EXPECT_EQ(t[i], t[0]) << to_string(kind) << " i=" << i;
    }
}

TEST(DltExact, EqualFinishExactCp) {
    expect_exact_equal_finish(NetworkKind::kCP,
                              rationals({"3/2", "2", "7/3", "5/4", "9/5"}),
                              Rational::parse("2/5"));
}

TEST(DltExact, EqualFinishExactNcpFe) {
    expect_exact_equal_finish(NetworkKind::kNcpFE,
                              rationals({"3/2", "2", "7/3", "5/4", "9/5"}),
                              Rational::parse("2/5"));
}

TEST(DltExact, EqualFinishExactNcpNfe) {
    expect_exact_equal_finish(NetworkKind::kNcpNFE,
                              rationals({"3/2", "2", "7/3", "5/4", "9/5"}),
                              Rational::parse("2/5"));
}

TEST(DltExact, ZeroCommunication) {
    for (NetworkKind kind :
         {NetworkKind::kCP, NetworkKind::kNcpFE, NetworkKind::kNcpNFE}) {
        expect_exact_equal_finish(kind, rationals({"1", "2", "4", "8"}), Rational{0});
    }
}

TEST(DltExact, TwoProcessors) {
    for (NetworkKind kind :
         {NetworkKind::kCP, NetworkKind::kNcpFE, NetworkKind::kNcpNFE}) {
        expect_exact_equal_finish(kind, rationals({"5/3", "7/2"}),
                                  Rational::parse("1/3"));
    }
}

TEST(DltExact, LargerSystemExact) {
    std::vector<Rational> w;
    for (int i = 1; i <= 10; ++i) {
        w.push_back(Rational{util::BigInt{2 * i + 1}, util::BigInt{i + 1}});
    }
    for (NetworkKind kind :
         {NetworkKind::kCP, NetworkKind::kNcpFE, NetworkKind::kNcpNFE}) {
        expect_exact_equal_finish(kind, w, Rational::parse("3/7"));
    }
}

TEST(DltExact, MatchesDoublePath) {
    const auto w_exact = rationals({"3/2", "2", "7/3"});
    const Rational z_exact = Rational::parse("2/5");
    const auto alpha_exact = optimal_allocation_generic<Rational>(
        NetworkKind::kNcpFE, std::span<const Rational>(w_exact), z_exact);

    ProblemInstance instance;
    instance.kind = NetworkKind::kNcpFE;
    instance.z = 0.4;
    instance.w = {1.5, 2.0, 7.0 / 3.0};
    const auto alpha_double = optimal_allocation(instance);

    for (std::size_t i = 0; i < alpha_double.size(); ++i) {
        EXPECT_NEAR(alpha_double[i], alpha_exact[i].to_double(), 1e-12);
    }
}

TEST(DltExact, CpEqualsNcpFeAllocationExactly) {
    const auto w = rationals({"3/2", "2", "7/3", "5/4"});
    const Rational z = Rational::parse("2/5");
    const auto cp = optimal_allocation_generic<Rational>(NetworkKind::kCP,
                                                         std::span<const Rational>(w), z);
    const auto fe = optimal_allocation_generic<Rational>(NetworkKind::kNcpFE,
                                                         std::span<const Rational>(w), z);
    for (std::size_t i = 0; i < cp.size(); ++i) EXPECT_EQ(cp[i], fe[i]);
}

// The scale stage's bid vector (w_i = 1.00, 1.01, ..., z = 0.002) at a large
// m: the double closed form against the exact-rational solve of the
// Theorem 2.1 system, every entry, with MatchesDoublePath's tolerance.
// m = 512 is the largest power of two whose exact solve finishes in about
// a minute per kind; the rationals' digits grow with m, so the solve is
// roughly cubic and m = 1024 would take about ten minutes per kind.
// EXPERIMENTS.md E25 records the timings.
constexpr std::size_t kExactScaleM = 512;

void expect_closed_form_matches_exact_solve(NetworkKind kind, std::size_t m) {
    std::vector<Rational> w_exact;
    ProblemInstance instance;
    instance.kind = kind;
    instance.z = 0.002;
    for (std::size_t i = 0; i < m; ++i) {
        const auto hundredths = static_cast<std::int64_t>(100 + i);
        w_exact.push_back(Rational{util::BigInt{hundredths}, util::BigInt{100}});
        instance.w.push_back(1.0 + 0.01 * static_cast<double>(i));
    }
    const auto alpha_exact = optimal_allocation_by_solver_generic<Rational>(
        kind, std::span<const Rational>(w_exact), Rational::parse("1/500"));
    const auto alpha_double = optimal_allocation(instance);
    ASSERT_EQ(alpha_double.size(), m);
    ASSERT_EQ(alpha_exact.size(), m);
    for (std::size_t i = 0; i < m; ++i) {
        EXPECT_NEAR(alpha_double[i], alpha_exact[i].to_double(), 1e-12)
            << to_string(kind) << " m=" << m << " i=" << i;
    }
}

TEST(DltExact, ScaleVectorMatchesExactSolveNcpFe) {
    expect_closed_form_matches_exact_solve(NetworkKind::kNcpFE, kExactScaleM);
}

TEST(DltExact, ScaleVectorMatchesExactSolveNcpNfe) {
    expect_closed_form_matches_exact_solve(NetworkKind::kNcpNFE, kExactScaleM);
}

}  // namespace
}  // namespace dlsbl::dlt
