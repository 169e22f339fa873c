// The DLS-BL mechanism (Grosu & Carroll [9], restated in §3 of the paper):
// a Compensation-and-Bonus mechanism with verification for divisible-load
// scheduling on bus networks.
//
//   * Each processor P_i has true unit-processing time t_i = w_i (private),
//     reports a bid b_i, and is later observed executing at w̃_i >= w_i.
//   * Output function: α(b) — the optimal BUS-LINEAR allocation computed
//     from the bids (dlt/closed_form.hpp).
//   * Valuation: V_i = -α_i w̃_i (linear cost model, §2).
//   * Payment:   Q_i(b, w̃) = C_i + B_i with
//       C_i = α_i w̃_i                                  (compensation)
//       B_i = T(α(b_-i), b_-i) - T(α(b), (b_-i, w̃_i))  (bonus)
//     where T(α(b_-i), b_-i) is the optimal makespan of the system without
//     P_i and the second term is the realized makespan: allocation from the
//     bids, processor i executing at w̃_i, everyone else at their bid.
//   * Utility: U_i = Q_i + V_i = B_i (compensation cancels the valuation).
//
// DLS-BL-NCP (protocol/) uses these exact allocation and payment functions;
// the paper's Theorems 5.2 and 5.3 inherit from Theorems 3.1 and 3.2 via
// that identity, which tests/test_protocol.cpp checks numerically.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dlt/closed_form.hpp"
#include "dlt/finish_time.hpp"
#include "dlt/sequencing.hpp"

namespace dlsbl::mech {

struct PaymentBreakdown {
    std::vector<double> compensation;  // C_i = α_i w̃_i
    std::vector<double> bonus;         // B_i
    std::vector<double> payment;       // Q_i = C_i + B_i
    std::vector<double> utility;       // U_i = Q_i - α_i w̃_i  (== B_i)
};

class DlsBl {
 public:
    // kind/z describe the bus system; bids become the w-vector handed to the
    // BUS-LINEAR allocation algorithm. Requires >= 2 processors (the bonus
    // compares against the leave-one-out system).
    DlsBl(dlt::NetworkKind kind, double z, std::vector<double> bids);

    [[nodiscard]] const dlt::LoadAllocation& allocation() const noexcept { return alpha_; }
    [[nodiscard]] const dlt::ProblemInstance& bid_instance() const noexcept {
        return instance_;
    }

    // Makespan if every processor executed exactly as bid: T(α(b), b).
    [[nodiscard]] double bid_makespan() const;

    // Realized makespan with observed execution values (w̃): T(α(b), w̃).
    [[nodiscard]] double realized_makespan(std::span<const double> exec_values) const;

    // Payments given the observed per-unit execution times w̃ (same length
    // as the bid vector).
    [[nodiscard]] PaymentBreakdown payments(std::span<const double> exec_values) const;

    // Single-agent views (used by property checkers and benches).
    [[nodiscard]] double bonus_of(std::size_t i, double exec_value) const;
    [[nodiscard]] double utility_of(std::size_t i, double exec_value) const;

    // Optimal makespan of the system without processor i: T(α(b_-i), b_-i).
    [[nodiscard]] double exclusion_makespan(std::size_t i) const;

 private:
    dlt::ProblemInstance instance_;    // kind, z, w = bids
    dlt::LoadAllocation alpha_;
    // The realized makespan T(α(b), (b_-i, w̃_i)) differs from the bid
    // makespan in T_i only (bus time does not depend on w), so it is one
    // finishing time and two running maxima of the bid finishing times:
    // bus_offsets_[i] gives T_i at any speed, max_before_[i] folds
    // T_1..T_{i-1} and max_after_[i] folds T_{i+1}..T_m (-inf when empty).
    // max picks one of its operands, so the result is bit-identical to
    // evaluating the whole mixed vector.
    std::vector<double> bus_offsets_;
    std::vector<double> max_before_;
    std::vector<double> max_after_;
    mutable std::vector<double> exclusion_cache_;  // lazily computed, NaN = missing
};

// One mechanism per bid vector. Every party of a run computes payments over
// the same public bids; handing them the same DlsBl lets the m leave-one-out
// makespans be solved once per run instead of once per party. Keyed on the
// exact bits of (kind, z, bids); a different key builds a fresh mechanism,
// and earlier handles stay valid.
class DlsBlCache {
 public:
    [[nodiscard]] std::shared_ptr<const DlsBl> get(dlt::NetworkKind kind, double z,
                                                   std::span<const double> bids);

 private:
    std::shared_ptr<const DlsBl> current_;
};

}  // namespace dlsbl::mech
