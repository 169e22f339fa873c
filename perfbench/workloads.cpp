#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "agents/zoo.hpp"
#include "dlt/finish_time.hpp"
#include "util/rng.hpp"

namespace dlsbl::perfbench {
namespace {

using dlt::NetworkKind;
using protocol::ChurnEventKind;
using protocol::ChurnPlan;
using protocol::ProtocolConfig;

constexpr NetworkKind kKinds[] = {NetworkKind::kNcpFE, NetworkKind::kNcpNFE};

// Every workload, tiny mode included, splits the load into 2048 blocks
// (4·m for honest_scale's m = 512). One block then costs at most
// 2/2048 ≈ 1e-3 of utility with w <= 2, inside kParticipationSlack; with
// coarser blocks honest utilities fall below -2e-3 from block rounding alone
// (m = 64 at 4·m blocks: about -3e-3).
constexpr std::size_t kBlocks = 2048;

std::string proc_name(std::size_t index) {
    std::string name = "P";
    name += std::to_string(index + 1);  // (operator+ trips a GCC 12 -Wrestrict false positive)
    return name;
}

// One run's config: its own seed and its own w ∈ [1, 2], everyone truthful.
ProtocolConfig base_config(NetworkKind kind, std::size_t m, double z, std::size_t blocks,
                           crypto::SignatureAlgorithm algorithm, std::uint64_t run_seed) {
    ProtocolConfig config;
    config.kind = kind;
    config.z = z;
    config.block_count = blocks;
    config.signature_algorithm = algorithm;
    config.crypto_keygen_jobs = 1;
    config.seed = run_seed;
    util::Xoshiro256 rng{run_seed};
    config.true_w.resize(m);
    for (auto& w : config.true_w) w = rng.uniform(1.0, 2.0);
    config.strategies.assign(m, agents::truthful());
    return config;
}

// ---- honest_scale -------------------------------------------------------------

WorkloadInputs honest_scale(std::uint64_t seed, bool tiny) {
    const std::size_t m = tiny ? 8 : 512;
    WorkloadInputs inputs;
    inputs.cycle.push_back({"NCP-FE/honest",
                            base_config(NetworkKind::kNcpFE, m, 0.002, kBlocks,
                                        crypto::SignatureAlgorithm::kFast,
                                        util::derive_seed(seed, 0)),
                            {}});
    return inputs;
}

// ---- signed_fleet -------------------------------------------------------------

// Run `index`: its own seed and w, NCP-FE and NCP-NFE alternating.
RunSpec signed_fleet_run(std::uint64_t seed, bool tiny, std::size_t index) {
    const NetworkKind kind = kKinds[index % 2];
    return {std::string(dlt::to_string(kind)) + "/honest",
            base_config(kind, tiny ? 8 : 16, 0.05, kBlocks, crypto::SignatureAlgorithm::kMerkle,
                        util::derive_seed(seed, index)),
            {}};
}

WorkloadInputs signed_fleet(std::uint64_t seed, bool tiny) {
    // No run repeats, so no cache can carry keys from one run to the next.
    WorkloadInputs inputs;
    for (std::size_t i = 0; i < (tiny ? 2 : 16); ++i) {
        inputs.cycle.push_back(signed_fleet_run(seed, tiny, i));
    }
    inputs.fresh = [seed, tiny](std::size_t index) {
        RunSpec spec = signed_fleet_run(seed, tiny, index);
        spec.config.validate();
        return spec;
    };
    return inputs;
}

// ---- adversarial_zoo ----------------------------------------------------------

struct ChurnShape {
    const char* name;
    // Plan against `victim`, with times scaled to the run's optimal makespan.
    ChurnPlan (*build)(const std::string& victim, double makespan);
    bool excludes;  // the victim misses the bid deadline (else: dies mid-run or nothing)
    bool dies;      // the victim's remaining blocks are reallocated
};

// Scales ChurnPolicy to the run: the defaults assume a makespan of ~0.5 s.
ChurnPlan scaled_plan(double makespan) {
    ChurnPlan plan;
    const double s = makespan / 0.5;
    plan.policy.bid_timeout *= s;
    plan.policy.detection_timeout *= s;
    plan.policy.processing_grace *= s;
    plan.policy.payment_timeout *= s;
    return plan;
}

// The churn shapes of test_property_churn plus the stale rejoin of
// test_protocol_churn, with their times expressed in makespans.
constexpr ChurnShape kChurnShapes[] = {
    {"crash-before-bid",
     [](const std::string& victim, double t) {
         ChurnPlan plan = scaled_plan(t);
         plan.events = {{victim, 0.0, ChurnEventKind::kCrash}};
         plan.policy.bid_timeout = 0.6 * t;
         plan.policy.processing_grace = 1.6 * t;
         return plan;
     },
     true, false},
    {"crash-mid-run",
     [](const std::string& victim, double t) {
         ChurnPlan plan = scaled_plan(t);
         plan.events = {{victim, 0.6 * t, ChurnEventKind::kCrash}};
         plan.policy.processing_grace = 1.6 * t;
         return plan;
     },
     false, true},
    {"loss-window",
     [](const std::string& victim, double t) {
         ChurnPlan plan = scaled_plan(t);
         plan.losses = {{victim, 0.8 * t, 10.0 * t}};
         plan.policy.processing_grace = 1.6 * t;
         return plan;
     },
     false, false},
    {"stale-rejoin",
     [](const std::string& victim, double t) {
         ChurnPlan plan = scaled_plan(t);
         plan.events = {{victim, 0.0, ChurnEventKind::kCrash},
                        {victim, 1.8 * t, ChurnEventKind::kRestartStale}};
         return plan;
     },
     true, false},
};

WorkloadInputs adversarial_zoo(std::uint64_t seed, bool tiny) {
    const std::size_t m = tiny ? 8 : 64;
    const double z = 0.005;
    WorkloadInputs inputs;
    inputs.obs_enabled = true;
    std::uint64_t stream = 0;
    util::Xoshiro256 placement{util::derive_seed(seed, ~0ull)};

    for (const NetworkKind kind : kKinds) {
        const std::size_t lo = dlt::load_origin_index(kind, m);
        const auto add = [&](const protocol::Strategy& strategy, std::size_t at,
                             Expectation::Kind expect) {
            RunSpec spec{std::string(dlt::to_string(kind)) + "/" + strategy.name + "@" +
                             proc_name(at),
                         base_config(kind, m, z, kBlocks, crypto::SignatureAlgorithm::kFast,
                                     util::derive_seed(seed, ++stream)),
                         {}};
            spec.config.strategies[at] = strategy;
            spec.expect.kind = expect;
            spec.expect.deviant = at;
            inputs.cycle.push_back(std::move(spec));
        };
        // A worker other than the load origin, drawn from the seed.
        const auto worker = [&] {
            std::size_t w = lo;
            while (w == lo) w = static_cast<std::size_t>(placement.uniform_int(0, m - 1));
            return w;
        };

        for (const auto& s : agents::lo_deviants()) add(s, lo, Expectation::Kind::kFined);
        for (const auto& s : agents::worker_deviants()) {
            add(s, worker(), Expectation::Kind::kFined);
        }
        for (const auto& s : {agents::underbidder(), agents::overbidder(),
                              agents::slow_executor(), agents::masked_overbidder(),
                              agents::junk_spammer(), agents::silent_observer()}) {
            add(s, worker(), Expectation::Kind::kUnfined);
        }
        for (const auto& shape : kChurnShapes) {
            RunSpec spec{"", base_config(kind, m, z, kBlocks, crypto::SignatureAlgorithm::kFast,
                                         util::derive_seed(seed, ++stream)),
                         {}};
            const std::string victim = proc_name(worker());
            const double makespan =
                dlt::optimal_makespan({kind, spec.config.z, spec.config.true_w});
            spec.label = std::string(dlt::to_string(kind)) + "/" + shape.name + "@" + victim;
            spec.config.churn_plan = shape.build(victim, makespan);
            spec.expect.kind = Expectation::Kind::kChurn;
            if (shape.excludes) spec.expect.excluded = {victim};
            if (shape.dies) spec.expect.dead = victim;
            inputs.cycle.push_back(std::move(spec));
        }
    }
    return inputs;
}

bool close(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
    for (const Workload w :
         {Workload::kHonestScale, Workload::kSignedFleet, Workload::kAdversarialZoo}) {
        if (name == to_string(w)) return w;
    }
    return std::nullopt;
}

const char* to_string(Workload workload) noexcept {
    switch (workload) {
        case Workload::kHonestScale: return "honest_scale";
        case Workload::kSignedFleet: return "signed_fleet";
        case Workload::kAdversarialZoo: return "adversarial_zoo";
    }
    return "?";
}

WorkloadInputs make_inputs(Workload workload, std::uint64_t seed, bool tiny) {
    WorkloadInputs inputs;
    switch (workload) {
        case Workload::kHonestScale: inputs = honest_scale(seed, tiny); break;
        case Workload::kSignedFleet: inputs = signed_fleet(seed, tiny); break;
        case Workload::kAdversarialZoo: inputs = adversarial_zoo(seed, tiny); break;
    }
    for (const auto& spec : inputs.cycle) spec.config.validate();
    return inputs;
}

std::string check_outcome(const RunSpec& spec, const protocol::ProtocolOutcome& outcome) {
    const auto& config = spec.config;
    const std::size_t m = config.processor_count();
    if (outcome.processors.size() != m) return "processor count";

    if (spec.expect.kind == Expectation::Kind::kFined) {
        // Exactly the finable deviant pays the fine; nobody else.
        for (std::size_t i = 0; i < m; ++i) {
            if (outcome.processors[i].fined != (i == spec.expect.deviant)) {
                return "fined set: " + outcome.processors[i].name +
                       (outcome.processors[i].fined ? " fined" : " not fined");
            }
        }
        return {};
    }

    // Every other shape settles without a single fine.
    if (outcome.terminated_early) return "terminated: " + outcome.termination_reason;
    if (outcome.fined_count() != 0) return "fines in a run without a finable deviant";
    double paid = 0.0;
    for (const auto& p : outcome.processors) paid += p.payment;
    if (!close(outcome.user_paid, paid)) return "user_paid != sum of payments";

    if (spec.expect.kind == Expectation::Kind::kChurn) {
        if (outcome.churn_excluded != spec.expect.excluded) return "churn excluded set";
        if (outcome.churn_dead != spec.expect.dead) return "churn dead processor";
        return {};
    }

    double alpha_sum = 0.0;
    std::size_t blocks = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const auto& p = outcome.processors[i];
        alpha_sum += p.alpha;
        blocks += p.blocks_assigned;
        const bool truthful = spec.expect.kind == Expectation::Kind::kHonest ||
                              i != spec.expect.deviant;
        if (truthful && p.utility() < -kParticipationSlack) {
            return "voluntary participation: " + p.name;
        }
    }
    if (!close(alpha_sum, 1.0)) return "sum of alpha != 1";
    if (blocks != config.block_count) return "blocks assigned != block count";
    return {};
}

std::string render_outcome(const protocol::ProtocolOutcome& outcome) {
    std::ostringstream out;
    out.precision(17);
    out << "terminated=" << outcome.terminated_early
        << " reason=" << outcome.termination_reason
        << " ended_in=" << protocol::to_string(outcome.ended_in)
        << " fine=" << outcome.fine_amount << " makespan=" << outcome.makespan
        << " user_paid=" << outcome.user_paid << " msgs=" << outcome.control_messages
        << " bytes=" << outcome.control_bytes << " dead=" << outcome.churn_dead
        << " realloc=" << outcome.churn_realloc_blocks << "\nphases=";
    for (const auto& [phase, bytes] : outcome.bytes_by_phase) out << phase << ":" << bytes << ",";
    out << "\nexcluded=";
    for (const auto& name : outcome.churn_excluded) out << name << ",";
    out << "\n";
    for (const auto& p : outcome.processors) {
        out << p.name << " w=" << p.true_w << " bid=" << p.bid << " rate=" << p.exec_rate
            << " alpha=" << p.alpha << " assigned=" << p.blocks_assigned
            << " received=" << p.blocks_received << " extra=" << p.blocks_extra
            << " excluded=" << p.excluded << " phi=" << p.phi
            << " commenced=" << p.commenced_work << " C=" << p.compensation
            << " B=" << p.bonus << " Q=" << p.payment << " fines=" << p.fines
            << " rewards=" << p.rewards << " fined=" << p.fined << " cost=" << p.work_cost
            << "\n";
    }
    return out.str();
}

}  // namespace dlsbl::perfbench
