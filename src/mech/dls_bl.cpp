#include "mech/dls_bl.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace dlsbl::mech {

DlsBl::DlsBl(dlt::NetworkKind kind, double z, std::vector<double> bids) {
    if (bids.size() < 2) {
        throw std::invalid_argument("DlsBl: mechanism needs at least two processors");
    }
    instance_.kind = kind;
    instance_.z = z;
    instance_.w = std::move(bids);
    instance_.validate();
    alpha_ = dlt::optimal_allocation(instance_);
    const std::size_t m = instance_.processor_count();
    bus_offsets_ = dlt::bus_offsets_generic<double>(kind, std::span<const double>(alpha_), z);
    const auto t = dlt::finishing_times(instance_, alpha_);
    // Same operand order as makespan_generic's left fold (std::max keeps the
    // earlier operand on ties), so every combination below reproduces it.
    max_before_.assign(m, 0.0);
    double best = t[0];
    for (std::size_t i = 1; i < m; ++i) {
        best = std::max(best, t[i - 1]);
        max_before_[i] = best;
    }
    max_after_.assign(m, -std::numeric_limits<double>::infinity());
    for (std::size_t i = m - 1; i > 0; --i) max_after_[i - 1] = std::max(t[i], max_after_[i]);
    exclusion_cache_.assign(m, std::numeric_limits<double>::quiet_NaN());
}

double DlsBl::bid_makespan() const { return dlt::makespan(instance_, alpha_); }

double DlsBl::realized_makespan(std::span<const double> exec_values) const {
    if (exec_values.size() != instance_.processor_count()) {
        throw std::invalid_argument("DlsBl: execution vector size mismatch");
    }
    return dlt::makespan_generic<double>(instance_.kind, std::span<const double>(alpha_),
                                         exec_values, instance_.z);
}

double DlsBl::exclusion_makespan(std::size_t i) const {
    if (i >= instance_.processor_count()) throw std::out_of_range("DlsBl: bad index");
    if (std::isnan(exclusion_cache_[i])) {
        exclusion_cache_[i] = dlt::leave_one_out_makespan(instance_, i);
    }
    return exclusion_cache_[i];
}

double DlsBl::bonus_of(std::size_t i, double exec_value) const {
    // T(α(b), (b_-i, w̃_i)): the bid-derived allocation evaluated with P_i
    // at its observed speed and everyone else at their bid.
    const double exclusion = exclusion_makespan(i);  // also range-checks i
    const double t_i = dlt::finishing_time_at<double>(instance_.kind, i, bus_offsets_[i],
                                                      alpha_[i], exec_value);
    const double up_to_i = i == 0 ? t_i : std::max(max_before_[i], t_i);
    return exclusion - std::max(up_to_i, max_after_[i]);
}

double DlsBl::utility_of(std::size_t i, double exec_value) const {
    // U_i = Q_i + V_i = (C_i + B_i) - α_i w̃_i = B_i.
    return bonus_of(i, exec_value);
}

PaymentBreakdown DlsBl::payments(std::span<const double> exec_values) const {
    const std::size_t m = instance_.processor_count();
    if (exec_values.size() != m) {
        throw std::invalid_argument("DlsBl: execution vector size mismatch");
    }
    PaymentBreakdown out;
    out.compensation.resize(m);
    out.bonus.resize(m);
    out.payment.resize(m);
    out.utility.resize(m);
    for (std::size_t i = 0; i < m; ++i) {
        out.compensation[i] = alpha_[i] * exec_values[i];
        out.bonus[i] = bonus_of(i, exec_values[i]);
        out.payment[i] = out.compensation[i] + out.bonus[i];
        out.utility[i] = out.payment[i] - alpha_[i] * exec_values[i];
    }
    return out;
}

std::shared_ptr<const DlsBl> DlsBlCache::get(dlt::NetworkKind kind, double z,
                                             std::span<const double> bids) {
    const auto same_bits = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    if (current_ != nullptr) {
        const auto& held = current_->bid_instance();
        if (held.kind == kind && same_bits(held.z, z) &&
            std::equal(held.w.begin(), held.w.end(), bids.begin(), bids.end(), same_bits)) {
            return current_;
        }
    }
    current_ = std::make_shared<const DlsBl>(kind, z, std::vector<double>(bids.begin(),
                                                                           bids.end()));
    return current_;
}

}  // namespace dlsbl::mech
