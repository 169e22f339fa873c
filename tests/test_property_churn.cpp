// Truthfulness under churn: a randomized property sweep.
//
// The paper proves bidding w_i truthfully is a dominant strategy on a
// static bus (Theorem 5.1). This suite asks what survives when the bus
// churns: for a grid of (kind, m, w, z, fine-factor) × churn plans, one
// observed processor tries bid deviations while everyone else stays honest,
// and we check that its utility peaks at the truthful bid.
//
// For the empty plan the property is asserted hard — it is the paper's
// theorem and must hold. Under churn plans the property is *measured*:
// each violated instance is emitted as a counterexample record into
// property_churn_counterexamples.json (next to the test binary) and the
// held/broke tally per plan is reported; EXPERIMENTS.md records the
// dominance-held-vs-broke table for the checked-in grid.
//
// The whole sweep runs under exec::RunExecutor, and a companion test pins
// byte-identity of merged artifacts at --jobs 1/2/8 for churn-bearing
// batches (the executor's determinism contract must survive churn too).
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "exec/executor.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "protocol/runner.hpp"
#include "util/rng.hpp"

namespace dlsbl::protocol {
namespace {

// ---- instance grid ----------------------------------------------------------

struct PlanShape {
    const char* name;
    // Builds the plan against the chosen victim processor (never the LO,
    // never the observed deviator).
    ChurnPlan (*build)(const std::string& victim);
};

ChurnPlan plan_none(const std::string&) { return {}; }

ChurnPlan plan_crash_before_bid(const std::string& victim) {
    ChurnPlan plan;
    plan.events = {{victim, 0.0, ChurnEventKind::kCrash}};
    plan.policy.bid_timeout = 0.3;
    plan.policy.processing_grace = 0.8;
    return plan;
}

ChurnPlan plan_crash_mid_run(const std::string& victim) {
    ChurnPlan plan;
    plan.events = {{victim, 0.3, ChurnEventKind::kCrash}};
    plan.policy.processing_grace = 0.8;
    return plan;
}

ChurnPlan plan_loss_window(const std::string& victim) {
    ChurnPlan plan;
    plan.losses = {{victim, 0.4, 5.0}};
    plan.policy.processing_grace = 0.8;
    return plan;
}

constexpr PlanShape kPlans[] = {
    {"none", plan_none},
    {"crash-before-bid", plan_crash_before_bid},
    {"crash-mid-run", plan_crash_mid_run},
    {"loss-window", plan_loss_window},
};

constexpr dlt::NetworkKind kKinds[] = {dlt::NetworkKind::kNcpFE,
                                       dlt::NetworkKind::kNcpNFE};
constexpr std::size_t kMs[] = {3, 4};
constexpr double kZs[] = {0.1, 0.25};
constexpr double kFineFactors[] = {1.2, 2.0};
constexpr std::size_t kWVariants = 8;
// 2 kinds × 2 m × 2 z × 2 fine × 8 w × 4 plans = 512 instances.
constexpr std::size_t kInstances = 2 * 2 * 2 * 2 * kWVariants * 4;
// Bid deviations tried against the truthful baseline.
constexpr double kDeviations[] = {0.85, 1.15, 1.3};
// Dominance is asserted up to block-rounding noise: payments come from the
// continuous closed form but realized work is quantized to blocks, so a
// deviation can "gain" O(w/block_count) spuriously. Matches the voluntary-
// participation tolerance used by test_protocol_sweeps.
constexpr double kDominanceSlack = 2e-3;

struct Instance {
    dlt::NetworkKind kind;
    std::size_t m;
    double z;
    double fine_factor;
    std::size_t w_variant;
    const PlanShape* plan;
};

Instance decode_instance(std::size_t index) {
    Instance inst;
    inst.plan = &kPlans[index % 4];
    index /= 4;
    inst.w_variant = index % kWVariants;
    index /= kWVariants;
    inst.fine_factor = kFineFactors[index % 2];
    index /= 2;
    inst.z = kZs[index % 2];
    index /= 2;
    inst.m = kMs[index % 2];
    index /= 2;
    inst.kind = kKinds[index % 2];
    return inst;
}

// Processor roles: the LO must survive (LO death terminates the run), the
// observed deviator must not be the churn victim (we measure *its* utility
// across all runs of the instance, so it has to exist in all of them).
std::size_t lo_index(const Instance& inst) {
    return inst.kind == dlt::NetworkKind::kNcpFE ? 0 : inst.m - 1;
}
std::size_t observed_index(const Instance& inst) {
    return lo_index(inst) == 1 ? 2 : 1;
}
std::size_t victim_index(const Instance& inst) {
    for (std::size_t i = inst.m; i-- > 0;) {
        if (i != lo_index(inst) && i != observed_index(inst)) return i;
    }
    return observed_index(inst);  // unreachable for m >= 3
}

ProtocolConfig instance_config(const Instance& inst, std::uint64_t seed) {
    ProtocolConfig config;
    config.kind = inst.kind;
    config.z = inst.z;
    config.fine_policy.safety_factor = inst.fine_factor;
    // Repo-wide convention (test_protocol_sweeps): 300 blocks per processor
    // keeps block-rounding noise in utilities at the ~1/300 scale, below the
    // kDominanceSlack the verdicts use.
    config.block_count = 300 * inst.m;
    config.seed = seed;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    // w drawn deterministically from the instance seed: w_i in [0.6, 2.6).
    util::Xoshiro256 rng{seed * 8191 + inst.w_variant};
    config.true_w.resize(inst.m);
    for (auto& w : config.true_w) w = rng.uniform(0.6, 2.6);
    config.strategies.assign(inst.m, agents::truthful());
    const std::string victim = "P" + std::to_string(victim_index(inst) + 1);
    config.churn_plan = inst.plan->build(victim);
    return config;
}

struct InstanceVerdict {
    Instance inst;
    std::uint64_t seed = 0;
    bool held = true;
    double truth_utility = 0.0;
    double best_deviation = 0.0;       // multiplier that beat the truth
    double best_deviation_utility = 0.0;
};

InstanceVerdict check_instance(std::size_t index, std::uint64_t seed) {
    const Instance inst = decode_instance(index);
    InstanceVerdict verdict;
    verdict.inst = inst;
    verdict.seed = seed;

    const std::size_t observed = observed_index(inst);
    auto run_with_multiplier = [&](double multiplier) {
        auto config = instance_config(inst, seed);
        // Exact sentinel: 1.0 is the literal truthful baseline, not a
        // computed value.  DLSBL_LINT_ALLOW(float-equality)
        if (multiplier != 1.0) {
            config.strategies[observed] = agents::misreporter(multiplier);
        }
        const auto outcome = run_protocol(config);
        return outcome.processors[observed].utility();
    };

    verdict.truth_utility = run_with_multiplier(1.0);
    verdict.best_deviation_utility = verdict.truth_utility;
    for (const double multiplier : kDeviations) {
        const double utility = run_with_multiplier(multiplier);
        if (utility > verdict.best_deviation_utility + kDominanceSlack) {
            verdict.held = false;
            verdict.best_deviation_utility = utility;
            verdict.best_deviation = multiplier;
        }
    }
    return verdict;
}

std::string counterexample_json(const InstanceVerdict& v) {
    std::ostringstream out;
    out.precision(17);
    out << "{\"kind\":\"" << dlt::to_string(v.inst.kind) << "\""
        << ",\"m\":" << v.inst.m << ",\"z\":" << v.inst.z
        << ",\"fine_factor\":" << v.inst.fine_factor
        << ",\"w_variant\":" << v.inst.w_variant
        << ",\"plan\":\"" << v.inst.plan->name << "\""
        << ",\"seed\":" << v.seed
        << ",\"truth_utility\":" << v.truth_utility
        << ",\"deviation\":" << v.best_deviation
        << ",\"deviation_utility\":" << v.best_deviation_utility << "}";
    return out.str();
}

// ---- the sweep --------------------------------------------------------------

TEST(ChurnProperty, TruthfulnessSweepAcrossChurnPlans) {
    exec::RunExecutor pool({.jobs = 0, .root_seed = 0xC4u});
    const auto verdicts =
        pool.map(kInstances, [](exec::RunSlot& slot) {
            return check_instance(slot.index(), slot.seed());
        });

    std::map<std::string, std::pair<std::size_t, std::size_t>> tally;  // held/broke
    std::vector<std::string> counterexamples;
    for (const auto& v : verdicts) {
        auto& [held, broke] = tally[v.inst.plan->name];
        if (v.held) {
            ++held;
        } else {
            ++broke;
            counterexamples.push_back(counterexample_json(v));
        }
        // The static-bus case is Theorem 5.1: no measuring, it must hold.
        if (std::string(v.inst.plan->name) == "none") {
            EXPECT_TRUE(v.held)
                << "dominance broke WITHOUT churn: " << counterexample_json(v);
        }
    }

    // Counterexample artifact (empty array when dominance held everywhere):
    // the EXPERIMENTS.md churn-dominance table is regenerated from this.
    std::ofstream artifact("property_churn_counterexamples.json");
    artifact << "[\n";
    for (std::size_t i = 0; i < counterexamples.size(); ++i) {
        artifact << "  " << counterexamples[i]
                 << (i + 1 < counterexamples.size() ? ",\n" : "\n");
    }
    artifact << "]\n";

    std::size_t total = 0;
    for (const auto& [plan, counts] : tally) {
        total += counts.first + counts.second;
        RecordProperty(std::string("held_") + plan,
                       static_cast<int>(counts.first));
        RecordProperty(std::string("broke_") + plan,
                       static_cast<int>(counts.second));
        std::cout << "[churn-property] plan=" << plan << " held=" << counts.first
                  << " broke=" << counts.second << "\n";
    }
    EXPECT_EQ(total, kInstances);
    // Every instance must have produced a verdict with a finite utility.
    for (const auto& v : verdicts) {
        EXPECT_TRUE(std::isfinite(v.truth_utility));
    }
}

// ---- executor determinism under churn ---------------------------------------

std::string render_for_identity(const ProtocolOutcome& outcome) {
    std::ostringstream out;
    out.precision(17);
    out << outcome.terminated_early << "|" << outcome.termination_reason << "|"
        << outcome.makespan << "|" << outcome.user_paid << "|"
        << outcome.churn_dead << "|" << outcome.churn_realloc_blocks << "|";
    for (const auto& name : outcome.churn_excluded) out << name << ",";
    for (const auto& p : outcome.processors) {
        out << "|" << p.name << ":" << p.bid << ":" << p.payment << ":"
            << p.blocks_extra << ":" << p.excluded << ":" << p.fines;
    }
    out << "\n";
    return out.str();
}

TEST(ChurnProperty, ChurnBatchesAreJobsInvariant) {
    auto run_batch = [](std::size_t jobs) {
        obs::EventLog::instance().reset();
        obs::MetricsRegistry::global().clear();
        std::ostringstream jsonl;
        auto& log = obs::EventLog::instance();
        log.add_sink(std::make_shared<obs::JsonlSink>(jsonl));
        log.set_level(util::LogLevel::Debug);

        exec::RunExecutor pool({.jobs = jobs, .root_seed = 0xC4A11ull});
        const auto outcomes = pool.map(12, [&](exec::RunSlot& slot) {
            // Every batch element carries churn, alternating plan shapes so
            // the merge covers exclusion, realloc, and loss paths.
            const Instance inst = decode_instance((slot.index() * 4 + 1 +
                                                   slot.index() % 3) %
                                                  kInstances);
            return run_protocol(instance_config(inst, slot.seed()));
        });
        log.flush();
        log.reset();
        std::string rendered = jsonl.str();
        rendered += obs::MetricsRegistry::global().prometheus_text();
        for (const auto& outcome : outcomes) rendered += render_for_identity(outcome);
        obs::MetricsRegistry::global().clear();
        return rendered;
    };
    const std::string one = run_batch(1);
    const std::string two = run_batch(2);
    const std::string eight = run_batch(8);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
}

}  // namespace
}  // namespace dlsbl::protocol
