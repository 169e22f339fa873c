// E12: ablation of the fine magnitude (§4 Bidding: "F must be larger than
// the sum of the compensations, i.e., F >= Σ_j α_j w_j").
//
// Sweeps the fine policy's safety factor and shows:
//  (a) deterrence — the deviant's utility falls linearly in F and is
//      already dominated for any positive fine;
//  (b) solvency — the paper's bound is what keeps the referee's escrow
//      solvent when an allocation-phase termination must compensate
//      processors that commenced work. Below factor 1 the pool cannot fund
//      the prescribed compensations.
#include "agents/zoo.hpp"
#include "bench/common.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/table.hpp"

using namespace dlsbl;

namespace {

struct SweepPoint {
    double factor;
    double fine;
    double deviant_utility;
    double honest_utility_same_instance;
    double compensation_requested;
    double compensation_paid;
    bool escrow_solvent;
};

SweepPoint run_point(double safety_factor) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 2400;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(4, agents::truthful());
    config.fine_policy.safety_factor = safety_factor;
    // The *last* load recipient fakes a shortage: by the time its complaint
    // resolves, the LO and the earlier workers have already commenced work,
    // so the allocation-phase termination rule owes them compensation out of
    // the collected fine — exactly the situation the paper's F >= Σ α_j w_j
    // bound exists for.
    config.strategies[3] = agents::false_short_claimer();

    SweepPoint point{};
    point.factor = safety_factor;
    const auto outcome = protocol::run_protocol(config, [&](const auto& internals) {
        point.escrow_solvent =
            internals.context.ledger().balance(internals.context.referee_name()) >= -1e-9;
        for (const double amount : internals.referee.compensations()) {
            point.compensation_paid += amount;
        }
    });
    point.fine = outcome.fine_amount;
    point.deviant_utility = outcome.processor("P4").utility();

    auto honest_config = config;
    honest_config.strategies[3] = agents::truthful();
    const auto honest = protocol::run_protocol(honest_config);
    point.honest_utility_same_instance = honest.processor("P4").utility();

    // Compensation requested: α_i w̃_i == metered φ_i of commenced non-deviants.
    for (const auto& p : outcome.processors) {
        if (!p.fined && p.commenced_work) point.compensation_requested += p.phi;
    }
    return point;
}

}  // namespace

int main() {
    bench::Report report("E12: fine-magnitude ablation — why F >= Σ α_j w_j");

    report.section(
        "sweep of the fine safety factor (P4 fakes a shortage; NCP-FE, m=4)");
    util::Table table({"factor", "F", "deviant U", "honest U", "comp requested",
                       "comp funded", "escrow solvent"});
    table.set_precision(5);

    bool deterrence_monotone = true;
    bool dominated_everywhere_positive = true;
    bool bound_marks_solvency = true;
    double previous_utility = 1e18;

    for (double factor : {0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 4.0}) {
        const auto point = run_point(factor);
        table.add_row({util::Table::format_double(point.factor, 4),
                       util::Table::format_double(point.fine, 5),
                       util::Table::format_double(point.deviant_utility, 5),
                       util::Table::format_double(point.honest_utility_same_instance, 5),
                       util::Table::format_double(point.compensation_requested, 5),
                       util::Table::format_double(point.compensation_paid, 5),
                       point.escrow_solvent ? "yes" : "NO"});
        if (point.deviant_utility > previous_utility + 1e-9) deterrence_monotone = false;
        previous_utility = point.deviant_utility;
        if (factor > 0.0 &&
            point.deviant_utility >= point.honest_utility_same_instance) {
            dominated_everywhere_positive = false;
        }
        // At factor >= 1 the pool must fund the full requested compensation.
        if (factor >= 1.0 &&
            point.compensation_paid + 1e-9 < point.compensation_requested) {
            bound_marks_solvency = false;
        }
        if (!point.escrow_solvent) bound_marks_solvency = false;
    }
    report.text(table.render());

    // Where does funding break? Show the paper's bound is tight from below.
    const auto at_half = run_point(0.5);
    const bool underfunded_below_bound =
        at_half.compensation_paid < at_half.compensation_requested - 1e-9 ||
        at_half.fine < at_half.compensation_requested;

    report.section("verdicts");
    report.verdict(deterrence_monotone, "deviant utility non-increasing in F");
    report.verdict(dominated_everywhere_positive,
                   "any positive fine already makes deviation dominated here");
    report.verdict(bound_marks_solvency,
                   "factor >= 1 (the paper's bound) funds all prescribed compensations "
                   "with a solvent escrow");
    report.verdict(underfunded_below_bound,
                   "below the bound the pool cannot cover the compensation sum");
    return report.exit_code();
}
