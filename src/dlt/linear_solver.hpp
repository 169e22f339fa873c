// Independent derivation of the optimal allocation by direct linear solve.
//
// Theorem 2.1 says the optimum is the unique allocation with
// T_1(α) = T_2(α) = ... = T_m(α) and Σ α_i = 1. This module assembles that
// m x m linear system straight from the finishing-time definitions (eqs
// 1-3) and solves it by Gaussian elimination with partial pivoting. It
// shares no code with the closed forms in closed_form.hpp, so agreement
// between the two is a meaningful cross-check (exercised by tests and the
// E4 bench).
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "dlt/types.hpp"

namespace dlsbl::dlt {

// Dense Gaussian elimination with partial pivoting.
// a is row-major n x n; returns x with a·x = b. Throws on singularity.
std::vector<double> solve_linear_system(std::vector<double> a, std::vector<double> b,
                                        std::size_t n);

// Optimal allocation via the equal-finish-time linear system.
LoadAllocation optimal_allocation_by_solver(const ProblemInstance& instance);

// ---------------------------------------------------------------------------
// Generic (exact-arithmetic) path. The templates below are the same
// algorithm as the double entry points, instantiable with util::Rational so
// tests can solve the Theorem 2.1 system without floating-point error and
// compare against the closed form with ==. They deliberately share the
// *assembly* with the double path (equal_finish_system_generic is called by
// optimal_allocation_by_solver) but not the closed forms in
// closed_form.hpp, so agreement between solver and closed form remains a
// meaningful cross-check.

// Gaussian elimination over any field-like scalar. Pivots on the first
// nonzero entry — magnitude pivoting is meaningless for exact scalars; the
// double wrapper above keeps magnitude pivoting for stability.
template <typename Scalar>
std::vector<Scalar> solve_linear_system_generic(std::vector<Scalar> a,
                                                std::vector<Scalar> b, std::size_t n) {
    if (a.size() != n * n || b.size() != n) {
        throw std::invalid_argument("solve_linear_system: dimension mismatch");
    }
    const Scalar zero{0};
    for (std::size_t col = 0; col < n; ++col) {
        std::size_t pivot = col;
        while (pivot < n && a[pivot * n + col] == zero) ++pivot;
        if (pivot == n) {
            throw std::domain_error("solve_linear_system: singular matrix");
        }
        if (pivot != col) {
            for (std::size_t k = 0; k < n; ++k) {
                using std::swap;
                swap(a[col * n + k], a[pivot * n + k]);
            }
            using std::swap;
            swap(b[col], b[pivot]);
        }
        for (std::size_t row = col + 1; row < n; ++row) {
            if (a[row * n + col] == zero) continue;
            const Scalar factor = a[row * n + col] / a[col * n + col];
            for (std::size_t k = col; k < n; ++k) {
                // Subtracting factor * 0 is the identity for exact scalars:
                // skip structural zeros (the Theorem 2.1 system is
                // bidiagonal plus one dense row).
                if (a[col * n + k] == zero) continue;
                a[row * n + k] = a[row * n + k] - factor * a[col * n + k];
            }
            b[row] = b[row] - factor * b[col];
        }
    }
    std::vector<Scalar> x(n, zero);
    for (std::size_t row = n; row-- > 0;) {
        Scalar acc = b[row];
        for (std::size_t k = row + 1; k < n; ++k) {
            if (a[row * n + k] == zero) continue;
            acc = acc - a[row * n + k] * x[k];
        }
        x[row] = acc / a[row * n + row];
    }
    return x;
}

// Row-major coefficients of the finishing times as linear functions of α:
// coeff[i*m + j] = ∂T_i/∂α_j, assembled directly from eqs (1)-(3).
template <typename Scalar>
std::vector<Scalar> finish_time_coefficients_generic(NetworkKind kind,
                                                     std::span<const Scalar> w,
                                                     const Scalar& z) {
    const std::size_t m = w.size();
    std::vector<Scalar> coeff(m * m, Scalar{0});
    switch (kind) {
        case NetworkKind::kCP:
            for (std::size_t i = 0; i < m; ++i) {
                for (std::size_t j = 0; j <= i; ++j) coeff[i * m + j] = z;
                coeff[i * m + i] = coeff[i * m + i] + w[i];
            }
            break;
        case NetworkKind::kNcpFE:
            coeff[0] = w[0];
            for (std::size_t i = 1; i < m; ++i) {
                for (std::size_t j = 1; j <= i; ++j) coeff[i * m + j] = z;
                coeff[i * m + i] = coeff[i * m + i] + w[i];
            }
            break;
        case NetworkKind::kNcpNFE:
            for (std::size_t i = 0; i + 1 < m; ++i) {
                for (std::size_t j = 0; j <= i; ++j) coeff[i * m + j] = z;
                coeff[i * m + i] = coeff[i * m + i] + w[i];
            }
            for (std::size_t j = 0; j + 1 < m; ++j) coeff[(m - 1) * m + j] = z;
            coeff[(m - 1) * m + (m - 1)] = coeff[(m - 1) * m + (m - 1)] + w[m - 1];
            break;
    }
    return coeff;
}

// Assembles the Theorem 2.1 system: rows 0..m-2 encode T_i - T_{i+1} = 0;
// row m-1 encodes Σ α = 1.
template <typename Scalar>
void equal_finish_system_generic(NetworkKind kind, std::span<const Scalar> w,
                                 const Scalar& z, std::vector<Scalar>& a,
                                 std::vector<Scalar>& b) {
    const std::size_t m = w.size();
    const auto coeff = finish_time_coefficients_generic<Scalar>(kind, w, z);
    a.assign(m * m, Scalar{0});
    b.assign(m, Scalar{0});
    for (std::size_t i = 0; i + 1 < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
            a[i * m + j] = coeff[i * m + j] - coeff[(i + 1) * m + j];
        }
    }
    for (std::size_t j = 0; j < m; ++j) a[(m - 1) * m + j] = Scalar{1};
    b[m - 1] = Scalar{1};
}

// Exact-arithmetic optimal allocation by direct solve of the equal-finish
// system (first-nonzero pivoting). Independent of the closed forms.
template <typename Scalar>
std::vector<Scalar> optimal_allocation_by_solver_generic(NetworkKind kind,
                                                         std::span<const Scalar> w,
                                                         const Scalar& z) {
    const std::size_t m = w.size();
    if (m == 0) throw std::invalid_argument("optimal_allocation: empty system");
    if (m == 1) return {Scalar{1}};
    std::vector<Scalar> a, b;
    equal_finish_system_generic<Scalar>(kind, w, z, a, b);
    return solve_linear_system_generic<Scalar>(std::move(a), std::move(b), m);
}

}  // namespace dlsbl::dlt
