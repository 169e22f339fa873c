// Workload inputs and outcome checks for the end-to-end protocol-run
// benchmark (see README.md in this directory).
//
// A workload is a cycle of RunSpecs generated from the seed: the protocol
// config handed to protocol::run_protocol plus what its outcome must look
// like. The library only ever sees the generated w vectors, strategies and
// churn plans.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "protocol/config.hpp"
#include "protocol/outcome.hpp"

namespace dlsbl::perfbench {

enum class Workload { kHonestScale, kSignedFleet, kAdversarialZoo };

std::optional<Workload> parse_workload(const std::string& name);
const char* to_string(Workload workload) noexcept;

// What a run's outcome must show.
struct Expectation {
    enum class Kind {
        kHonest,    // everyone truthful: settles, no fines, all load placed
        kUnfined,   // misreporter / junk / silent deviant: settles, no fines
        kFined,     // finable deviant: exactly `fined` is fined
        kChurn,     // churn plan: settles, no fines, rulings match the plan
    };
    Kind kind = Kind::kHonest;
    std::size_t deviant = 0;                // kUnfined / kFined: the deviant's index
    std::vector<std::string> excluded;      // kChurn: expected churn_excluded
    std::string dead;                       // kChurn: expected churn_dead
};

struct RunSpec {
    std::string label;  // e.g. "NCP-FE/short_shipping_lo@P1"
    protocol::ProtocolConfig config;
    Expectation expect;
};

struct WorkloadInputs {
    // Runs [0, cycle.size()) are always executed and form the outcome
    // digest; the timed loop completes whole cycles, so every execution sees
    // the same mix. Run i executes cycle[i % cycle.size()], unless `fresh`
    // is set: then every run past the first cycle gets its own seed and w
    // from fresh(i), generated on demand.
    std::vector<RunSpec> cycle;
    std::function<RunSpec(std::size_t)> fresh;
    bool obs_enabled = false;   // JSONL at debug level + catapult export per run
};

// Deterministic in (workload, seed, tiny), and so is every fresh(i). Tiny
// mode uses m = 8 throughout. The first cycle comes back validated.
WorkloadInputs make_inputs(Workload workload, std::uint64_t seed, bool tiny);

// Voluntary-participation tolerance: the block-rounding slack
// test_protocol_sweeps and test_property_churn already use.
inline constexpr double kParticipationSlack = 2e-3;

// Empty when the outcome satisfies the spec's expectation, otherwise the
// first violated check.
std::string check_outcome(const RunSpec& spec, const protocol::ProtocolOutcome& outcome);

// Canonical text of an outcome (every field, 17 significant digits); the
// outcome digest is SHA-256 over these renderings in run order.
std::string render_outcome(const protocol::ProtocolOutcome& outcome);

}  // namespace dlsbl::perfbench
