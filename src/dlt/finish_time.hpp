// Finishing-time models T_i(α) for the three bus-network classes —
// equations (1), (2) and (3) of the paper.
//
//   CP      (eq 1): T_i = z Σ_{j<=i} α_j + α_i w_i              (Figure 1)
//   NCP-FE  (eq 2): T_1 = α_1 w_1,                              (Figure 2)
//                   T_i = z Σ_{2<=j<=i} α_j + α_i w_i, i >= 2
//   NCP-NFE (eq 3): T_i = z Σ_{j<=i} α_j + α_i w_i, i <= m-1,   (Figure 3)
//                   T_m = z Σ_{j<=m-1} α_j + α_m w_m
//
// The NCP-FE sum starts at j=2 because the load-originating P_1 never
// occupies the bus on its own behalf (its front end lets it compute from
// t=0 while transmitting to the others) — this matches Figure 2, where the
// communication row carries α_2 z, α_3 z, ..., α_m z.
//
// Allows mixed speed vectors: T_i can be evaluated with processor i running
// at its *execution* rate w̃_i while others run at bid rates, which is what
// the DLS-BL bonus term needs (mech/dls_bl.hpp).
#pragma once

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "dlt/types.hpp"

namespace dlsbl::dlt {

// Bus time c_i that has elapsed when P_i starts computing, so that
// T_i = c_i + α_i w_i — except NCP-FE's P_1, which computes from t = 0
// (T_1 = α_1 w_1; see finishing_time_at). c depends on α and z only, never on
// w: re-evaluating one T_i at another speed leaves every other T_j as it
// was, which is what the DLS-BL bonus term exploits (mech/dls_bl.cpp).
template <typename Scalar>
std::vector<Scalar> bus_offsets_generic(NetworkKind kind, std::span<const Scalar> alpha,
                                        const Scalar& z) {
    const std::size_t m = alpha.size();
    if (m == 0) throw std::invalid_argument("finishing_times: empty system");
    std::vector<Scalar> offsets(m);
    Scalar comm{0};  // prefix of bus time consumed before P_i's data is delivered
    switch (kind) {
        case NetworkKind::kCP:
            for (std::size_t i = 0; i < m; ++i) {
                comm = comm + z * alpha[i];
                offsets[i] = comm;
            }
            break;
        case NetworkKind::kNcpFE:
            offsets[0] = comm;
            for (std::size_t i = 1; i < m; ++i) {
                comm = comm + z * alpha[i];
                offsets[i] = comm;
            }
            break;
        case NetworkKind::kNcpNFE:
            for (std::size_t i = 0; i + 1 < m; ++i) {
                comm = comm + z * alpha[i];
                offsets[i] = comm;
            }
            // LO has no front end: it computes only after all transfers.
            offsets[m - 1] = comm;
            break;
    }
    return offsets;
}

// T_i from its bus offset, share and per-unit time.
template <typename Scalar>
Scalar finishing_time_at(NetworkKind kind, std::size_t i, const Scalar& offset,
                         const Scalar& alpha_i, const Scalar& w_i) {
    if (kind == NetworkKind::kNcpFE && i == 0) return alpha_i * w_i;
    return offset + alpha_i * w_i;
}

// All T_i for an arbitrary (not necessarily optimal) allocation.
template <typename Scalar>
std::vector<Scalar> finishing_times_generic(NetworkKind kind, std::span<const Scalar> alpha,
                                            std::span<const Scalar> w, const Scalar& z) {
    const std::size_t m = w.size();
    if (alpha.size() != m) throw std::invalid_argument("finishing_times: size mismatch");
    std::vector<Scalar> t = bus_offsets_generic<Scalar>(kind, alpha, z);
    for (std::size_t i = 0; i < m; ++i) t[i] = t[i] + alpha[i] * w[i];
    if (kind == NetworkKind::kNcpFE) t[0] = alpha[0] * w[0];  // see finishing_time_at
    return t;
}

template <typename Scalar>
Scalar makespan_generic(NetworkKind kind, std::span<const Scalar> alpha,
                        std::span<const Scalar> w, const Scalar& z) {
    const auto t = finishing_times_generic<Scalar>(kind, alpha, w, z);
    Scalar best = t[0];
    for (const Scalar& ti : t) best = std::max(best, ti);
    return best;
}

// Double entry points.
std::vector<double> finishing_times(const ProblemInstance& instance,
                                    const LoadAllocation& alpha);
double makespan(const ProblemInstance& instance, const LoadAllocation& alpha);

// Convenience: makespan of the *optimal* allocation for the instance —
// T(α(b)) in the paper's payment formulas.
double optimal_makespan(const ProblemInstance& instance);

}  // namespace dlsbl::dlt
