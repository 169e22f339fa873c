// Shared artifact harness for the protocol regression tests.
//
// capture() runs one config and renders every deterministic artifact of the
// run: outcome, fines ledger, JSONL event log at debug level, rendered
// trace, catapult export and per-run Prometheus text. expect_golden()
// checks them against a table of pinned SHA-256 digests. A mismatch names
// the scenario, the artifact and the new digest, so a deliberate behaviour
// change is re-pinned by hand and visibly; nothing here re-pins on its own.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>

#include "crypto/sha256.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "protocol/detail/run_internals.hpp"
#include "util/bytes.hpp"

namespace dlsbl::protocol::test_support {

// Deterministic rendering of every field an outcome carries, churn rulings
// included; two runs agree iff their renderings agree byte for byte.
inline std::string render_outcome(const ProtocolOutcome& outcome) {
    std::ostringstream out;
    out.precision(17);
    out << "terminated=" << outcome.terminated_early
        << " reason=" << outcome.termination_reason
        << " ended_in=" << to_string(outcome.ended_in)
        << " fine=" << outcome.fine_amount << " makespan=" << outcome.makespan
        << " user_paid=" << outcome.user_paid
        << " msgs=" << outcome.control_messages
        << " bytes=" << outcome.control_bytes
        << " dead=" << outcome.churn_dead
        << " realloc=" << outcome.churn_realloc_blocks << "\n";
    out << "excluded=";
    for (const auto& name : outcome.churn_excluded) out << name << ",";
    out << "\n";
    for (const auto& [phase, bytes] : outcome.bytes_by_phase) {
        out << "phase " << phase << " bytes=" << bytes << "\n";
    }
    for (const auto& p : outcome.processors) {
        out << p.name << " w=" << p.true_w << " bid=" << p.bid
            << " rate=" << p.exec_rate << " alpha=" << p.alpha
            << " assigned=" << p.blocks_assigned
            << " received=" << p.blocks_received << " extra=" << p.blocks_extra
            << " excluded=" << p.excluded << " phi=" << p.phi
            << " commenced=" << p.commenced_work << " comp=" << p.compensation
            << " bonus=" << p.bonus << " payment=" << p.payment
            << " fines=" << p.fines << " rewards=" << p.rewards
            << " fined=" << p.fined << " cost=" << p.work_cost << "\n";
    }
    return out.str();
}

inline std::string render_ledger(const Ledger& ledger) {
    std::ostringstream out;
    out.precision(17);
    for (const auto& entry : ledger.history()) {
        out << entry.from << " -> " << entry.to << " " << entry.amount << " ("
            << entry.memo << ")\n";
    }
    return out.str();
}

// The pinned artifacts, in digest-table order.
inline constexpr std::size_t kArtifactCount = 6;
inline constexpr std::array<std::string_view, kArtifactCount> kArtifactNames = {
    "outcome", "ledger", "jsonl", "trace", "catapult", "metrics"};
using ArtifactDigests = std::array<std::string_view, kArtifactCount>;

// Every pinned artifact from one run, plus the outcome for scenario-level
// assertions.
struct RunCapture {
    ProtocolOutcome result;
    std::string outcome;
    std::string ledger;
    std::string jsonl;
    std::string trace;
    std::string catapult;
    std::string run_metrics;

    [[nodiscard]] std::array<const std::string*, kArtifactCount> artifacts() const {
        return {&outcome, &ledger, &jsonl, &trace, &catapult, &run_metrics};
    }
    bool operator==(const RunCapture& other) const {
        for (std::size_t i = 0; i < kArtifactCount; ++i) {
            if (*artifacts()[i] != *other.artifacts()[i]) return false;
        }
        return true;
    }
};

// Runs `config` with the JSONL event log captured at debug level. `extra`,
// if set, sees the run's internals after the pinned artifacts are taken.
inline RunCapture capture(const ProtocolConfig& config, const RunObserver& extra = {}) {
    auto& log = obs::EventLog::instance();
    log.reset();
    std::ostringstream jsonl;
    log.add_sink(std::make_shared<obs::JsonlSink>(jsonl));
    log.set_level(util::LogLevel::Debug);

    RunCapture capture;
    capture.result = run_protocol(config, [&](const RunInternals& internals) {
        capture.ledger = render_ledger(internals.context.ledger());
        capture.trace = internals.trace().render();
        capture.catapult = obs::catapult_from_trace(internals.trace());
        capture.run_metrics = internals.context.metrics_registry().prometheus_text();
        if (extra) extra(internals);
    });
    log.flush();
    log.reset();
    capture.outcome = render_outcome(capture.result);
    capture.jsonl = jsonl.str();
    return capture;
}

inline std::string sha256_hex(std::string_view text) {
    const crypto::Digest digest = crypto::Sha256::hash(text);
    return util::to_hex(digest);
}

// One row of a digest table: a scenario label and its pinned digests.
struct Golden {
    std::string_view scenario;
    ArtifactDigests digests;  // outcome, ledger, jsonl, trace, catapult, metrics
};

// Checks each artifact of `run` against the digests `table` pins for
// `scenario`. On a mismatch the failure prints the scenario, the artifact
// and the digest it now has.
inline void expect_golden(const RunCapture& run, std::string_view scenario,
                          std::span<const Golden> table) {
    EXPECT_FALSE(run.outcome.empty()) << scenario;
    EXPECT_FALSE(run.trace.empty()) << scenario;
    EXPECT_FALSE(run.jsonl.empty()) << scenario;
    const auto row = std::find_if(table.begin(), table.end(), [&](const Golden& g) {
        return g.scenario == scenario;
    });
    ArtifactDigests golden{};
    if (row == table.end()) {
        ADD_FAILURE() << "no pinned digests for scenario \"" << scenario << "\"";
    } else {
        golden = row->digests;
    }
    const auto artifacts = run.artifacts();
    for (std::size_t i = 0; i < kArtifactCount; ++i) {
        const std::string actual = sha256_hex(*artifacts[i]);
        if (actual != golden[i]) {
            ADD_FAILURE() << "golden digest mismatch: scenario \"" << scenario
                          << "\" artifact " << kArtifactNames[i] << " new digest "
                          << actual << " (pinned " << golden[i] << ")";
        }
    }
}

}  // namespace dlsbl::protocol::test_support
