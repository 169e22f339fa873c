// End-to-end byte-identity gate for the crypto fast paths: a fixed-seed
// protocol run must produce identical public keys and identical artifacts
// (outcome, ledger, JSONL, trace, catapult, metrics) whether SHA-256 runs on
// the scalar backend with inline keygen or on the dispatch-selected SIMD
// backend with parallel MSS keygen and the verification cache engaged.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "agents/zoo.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "protocol/churn.hpp"
#include "support/run_capture.hpp"
#include "util/bytes.hpp"

namespace dlsbl {
namespace {

// Every pinned run artifact plus the public keys the run registered.
struct RunArtifacts {
    protocol::test_support::RunCapture run;
    std::string public_keys;  // hex, one line per identity
    bool operator==(const RunArtifacts& other) const {
        return run == other.run && public_keys == other.public_keys;
    }
};

RunArtifacts capture_run(const protocol::ProtocolConfig& config) {
    RunArtifacts artifacts;
    std::ostringstream keys;
    artifacts.run = protocol::test_support::capture(
        config, [&](const protocol::RunInternals& internals) {
            const auto& pki = internals.context.pki();
            for (const auto& name : internals.context.processor_names()) {
                const auto& pk = pki.public_key_of(name);
                keys << name << ' '
                     << util::to_hex(std::span<const std::uint8_t>(pk.data(), pk.size()))
                     << '\n';
            }
            const auto& user_pk = pki.public_key_of(internals.context.user_name());
            keys << "user "
                 << util::to_hex(
                        std::span<const std::uint8_t>(user_pk.data(), user_pk.size()))
                 << '\n';
        });
    artifacts.public_keys = keys.str();
    return artifacts;
}

class ScopedBackend {
 public:
    explicit ScopedBackend(std::string_view name) : saved_(crypto::sha256_backend()) {
        EXPECT_TRUE(crypto::sha256_set_backend(name));
    }
    ~ScopedBackend() { crypto::sha256_set_backend(saved_); }

 private:
    std::string saved_;
};

protocol::ProtocolConfig identity_config(crypto::SignatureAlgorithm algorithm) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpNFE;
    config.z = 0.3;
    config.true_w = {1.0, 2.0, 1.5, 1.2};
    config.block_count = 600;
    config.seed = 42;
    config.signature_algorithm = algorithm;
    config.mss_height = 3;
    return config;
}

TEST(ProtocolCryptoIdentity, ScalarInlineEqualsSimdParallel) {
    for (const auto algorithm : {crypto::SignatureAlgorithm::kMerkle,
                                 crypto::SignatureAlgorithm::kMerkleWots}) {
        auto config = identity_config(algorithm);

        RunArtifacts baseline;
        {
            ScopedBackend scalar("scalar");
            config.crypto_keygen_jobs = 1;
            baseline = capture_run(config);
        }
        ASSERT_FALSE(baseline.run.trace.empty());
        ASSERT_FALSE(baseline.public_keys.empty());

        RunArtifacts fast;
        {
            ScopedBackend best("auto");
            config.crypto_keygen_jobs = 8;
            fast = capture_run(config);
        }

        EXPECT_EQ(baseline, fast) << "algorithm=" << static_cast<int>(algorithm)
                                  << " backend=" << crypto::sha256_backend();
    }
}

// Deferred batch signature verification must be OBSERVABLY IDENTICAL to
// eager per-arrival verification: same verdicts at the same sim times, same
// fines, same artifacts — at any batch size. The
// scenarios pick the paths where a wrong flush point would show: honest
// accumulation, a payment-phase verdict, a mid-bidding double-bid dispute,
// and churn (exclusions, reallocation, canonical settlement).
TEST(ProtocolCryptoIdentity, DeferredBatchVerificationMatchesEager) {
    struct Scenario {
        const char* name;
        std::function<void(protocol::ProtocolConfig&)> tweak;
    };
    const std::vector<Scenario> scenarios = {
        {"honest", [](protocol::ProtocolConfig&) {}},
        {"payment-cheater",
         [](protocol::ProtocolConfig& c) { c.strategies[1] = agents::payment_cheater(); }},
        {"double-bidder",
         [](protocol::ProtocolConfig& c) { c.strategies[2] = agents::inconsistent_bidder(); }},
        {"churn-crash",
         [](protocol::ProtocolConfig& c) {
             c.churn_plan.events = {{"P3", 0.0, protocol::ChurnEventKind::kCrash}};
         }},
    };
    for (const auto& scenario : scenarios) {
        auto config = identity_config(crypto::SignatureAlgorithm::kMerkleWots);
        config.strategies.assign(config.true_w.size(), agents::truthful());
        scenario.tweak(config);

        config.verify_batch = 1;  // eager baseline
        const RunArtifacts eager = capture_run(config);
        ASSERT_FALSE(eager.run.trace.empty()) << scenario.name;

        for (const std::size_t batch : {std::size_t{16}, std::size_t{64}}) {
            config.verify_batch = batch;
            EXPECT_EQ(eager, capture_run(config))
                << scenario.name << " diverges at verify_batch=" << batch;
        }
    }
}

// Repeating the identical run must also be stable against itself (guards
// against nondeterminism introduced by the verify cache or thread pool).
TEST(ProtocolCryptoIdentity, RepeatRunsAreStable) {
    auto config = identity_config(crypto::SignatureAlgorithm::kMerkleWots);
    config.crypto_keygen_jobs = 4;
    const auto a = capture_run(config);
    const auto b = capture_run(config);
    EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dlsbl
