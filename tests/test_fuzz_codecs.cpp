// Adversarial-input robustness: every wire decoder must survive arbitrary
// bytes (returning nullopt, never crashing or throwing) — a processor can
// feed the referee or its peers anything at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "agents/zoo.hpp"
#include "crypto/lamport.hpp"
#include "crypto/merkle.hpp"
#include "crypto/mss.hpp"
#include "crypto/pki.hpp"
#include "crypto/sha256.hpp"
#include "mech/dls_bl.hpp"
#include "obs/metrics.hpp"
#include "protocol/blocks.hpp"
#include "protocol/churn.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/dispatch.hpp"
#include "protocol/messages.hpp"
#include "protocol/runner.hpp"
#include "protocol/wire.hpp"
#include "util/rng.hpp"

namespace dlsbl {
namespace {

namespace wire = protocol::wire;

util::Bytes random_bytes(util::Xoshiro256& rng, std::size_t max_len) {
    util::Bytes out(static_cast<std::size_t>(rng.uniform_int(0, max_len)));
    for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    return out;
}

// Signature and plan formats (Merkle proofs, MSS/Lamport signatures,
// churn plans) keep their own codecs: must not throw, and any parse success
// must at least re-serialize without crashing.
template <typename T>
void fuzz_decoder(std::uint64_t seed, std::size_t iterations, std::size_t max_len) {
    util::Xoshiro256 rng{seed};
    for (std::size_t i = 0; i < iterations; ++i) {
        const util::Bytes data = random_bytes(rng, max_len);
        const auto parsed = T::deserialize(data);
        if (parsed.has_value()) {
            (void)parsed->serialize();
        }
    }
}

// The owned body a receiver can rebuild from a view: to_owned() where the
// view has one, field by field over its cursors otherwise.
crypto::SignedMessage rebuild(const wire::SignedMessageView& v) { return v.to_owned(); }
protocol::Block rebuild(const wire::BlockView& v) { return v.to_owned(); }
protocol::AllocComplaintBody rebuild(const wire::AllocComplaintView& v) {
    return v.to_owned();
}
protocol::BidVectorBody rebuild(const wire::BidVectorView& v) { return v.to_owned(); }

protocol::BidBody rebuild(const wire::BidView& v) {
    return {v.job_id, std::string(v.processor), v.bid};
}

protocol::LoadBatch rebuild(const wire::LoadBatchView& v) {
    protocol::LoadBatch batch{std::string(v.origin), {}};
    wire::Cursor c = v.blocks;
    for (std::uint64_t i = 0; i < v.block_count; ++i) {
        batch.blocks.push_back(wire::BlockView::next(c)->to_owned());
    }
    return batch;
}

protocol::DoubleBidEvidence rebuild(const wire::DoubleBidEvidenceView& v) {
    return {std::string(v.accused), v.first.to_owned(), v.second.to_owned()};
}

protocol::MediateRequestBody rebuild(const wire::MediateRequestView& v) {
    protocol::MediateRequestBody body{std::string(v.beneficiary), {}};
    wire::Cursor c = v.ids;
    for (std::uint64_t i = 0; i < v.id_count; ++i) body.block_ids.push_back(c.u64());
    return body;
}

protocol::MeterVectorBody rebuild(const wire::MeterVectorView& v) {
    protocol::MeterVectorBody body{v.job_id, {}};
    wire::Cursor c = v.phis;
    for (std::uint64_t i = 0; i < v.phi_count; ++i) {
        std::string processor(c.str());
        const double phi = c.f64();
        body.phis.emplace_back(std::move(processor), phi);
    }
    return body;
}

protocol::PaymentBody rebuild(const wire::PaymentView& v) {
    protocol::PaymentBody body{v.job_id, std::string(v.processor), {}};
    wire::Cursor c = v.payments;
    for (std::uint64_t i = 0; i < v.payment_count; ++i) body.payments.push_back(c.f64());
    return body;
}

protocol::TerminateBody rebuild(const wire::TerminateView& v) {
    protocol::TerminateBody body{std::string(v.reason), {}};
    wire::Cursor c = v.fined;
    for (std::uint64_t i = 0; i < v.fined_count; ++i) body.fined.emplace_back(c.str());
    return body;
}

protocol::ExcludeBody rebuild(const wire::ExcludeView& v) {
    protocol::ExcludeBody body{v.job_id, {}};
    wire::Cursor c = v.excluded;
    for (std::uint64_t i = 0; i < v.excluded_count; ++i) body.excluded.emplace_back(c.str());
    return body;
}

protocol::ReallocBody rebuild(const wire::ReallocView& v) {
    protocol::ReallocBody body{v.job_id, std::string(v.dead), v.dead_final, {}};
    wire::Cursor c = v.extras;
    for (std::uint64_t i = 0; i < v.extra_count; ++i) {
        std::string name(c.str());
        const std::uint64_t count = c.u64();
        body.extras.emplace_back(std::move(name), count);
    }
    return body;
}

// Canonical round trip: whatever a view accepts, the body rebuilt from it
// re-encodes to exactly the input bytes — no two encodings of one body,
// so a signature over the bytes is a signature over the body.
template <typename View>
void expect_canonical(std::span<const std::uint8_t> data) {
    const auto view = View::parse(data);
    if (view.has_value()) {
        EXPECT_EQ(wire::flat_encode(rebuild(*view)), util::Bytes(data.begin(), data.end()))
            << "accepted a non-canonical " << data.size() << "-byte input";
    }
}

// Protocol messages decode only through protocol::wire views: random bytes
// must never crash a view parser, and anything accepted must be canonical.
template <typename View>
void fuzz_view(std::uint64_t seed, std::size_t iterations, std::size_t max_len) {
    util::Xoshiro256 rng{seed};
    for (std::size_t i = 0; i < iterations; ++i) {
        expect_canonical<View>(random_bytes(rng, max_len));
    }
}

TEST(FuzzCodecs, BidBody) { fuzz_view<wire::BidView>(1, 3000, 128); }
TEST(FuzzCodecs, LoadBatch) { fuzz_view<wire::LoadBatchView>(2, 2000, 512); }
TEST(FuzzCodecs, DoubleBidEvidence) { fuzz_view<wire::DoubleBidEvidenceView>(3, 2000, 512); }
TEST(FuzzCodecs, AllocComplaint) { fuzz_view<wire::AllocComplaintView>(4, 2000, 512); }
TEST(FuzzCodecs, BidVector) { fuzz_view<wire::BidVectorView>(5, 2000, 512); }
TEST(FuzzCodecs, MediateRequest) { fuzz_view<wire::MediateRequestView>(6, 3000, 256); }
TEST(FuzzCodecs, MeterVector) { fuzz_view<wire::MeterVectorView>(7, 3000, 256); }
TEST(FuzzCodecs, PaymentBody) { fuzz_view<wire::PaymentView>(8, 3000, 256); }
TEST(FuzzCodecs, TerminateBody) { fuzz_view<wire::TerminateView>(9, 3000, 256); }
TEST(FuzzCodecs, Block) { fuzz_view<wire::BlockView>(10, 2000, 512); }
TEST(FuzzCodecs, SignedMessage) { fuzz_view<wire::SignedMessageView>(11, 3000, 512); }
TEST(FuzzCodecs, MerkleProof) { fuzz_decoder<crypto::MerkleProof>(12, 3000, 512); }
TEST(FuzzCodecs, MssSignature) { fuzz_decoder<crypto::MssSignature>(13, 500, 20000); }
TEST(FuzzCodecs, LamportSignature) {
    fuzz_decoder<crypto::LamportSignature>(14, 200, 20000);
}

// True when `bytes` parse as an envelope that verifies and carries
// `payload` — the envelope parse + verify the node and referee run.
bool verifies_with_payload(std::span<const std::uint8_t> bytes,
                           const util::Bytes& payload, const crypto::Pki& pki) {
    const auto view = wire::SignedMessageView::parse(bytes);
    return view && view->verify(pki) && std::ranges::equal(view->payload, payload);
}

// Mutation fuzzing: take a VALID encoding, flip random bytes, and require
// graceful handling — and, for signed content, rejection by verification.
TEST(FuzzCodecs, MutatedSignedMessagesNeverVerify) {
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    const auto msg = crypto::sign_message(*signer, "P1",
                                          wire::flat_encode(protocol::BidBody{1, "P1", 1.5}));
    const util::Bytes encoded = wire::flat_encode(msg);
    ASSERT_TRUE(verifies_with_payload(encoded, msg.payload, pki));

    util::Xoshiro256 rng{99};
    int accepted_mutants = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        util::Bytes mutated = encoded;
        const std::size_t flips = 1 + rng.uniform_int(0, 3);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
            mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
        }
        if (mutated == encoded) continue;
        // Only possible if the mutation hit redundant bytes.
        if (verifies_with_payload(mutated, msg.payload, pki)) ++accepted_mutants;
    }
    EXPECT_EQ(accepted_mutants, 0);
}

TEST(FuzzCodecs, TruncatedValidEncodingsRejected) {
    protocol::MeterVectorBody body;
    body.job_id = 5;
    body.phis = {{"P1", 0.25}, {"P2", 0.5}, {"P3", 0.75}};
    const util::Bytes encoded = wire::flat_encode(body);
    ASSERT_TRUE(wire::MeterVectorView::parse(encoded).has_value());
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
        const auto parsed = wire::MeterVectorView::parse(
            std::span<const std::uint8_t>(encoded.data(), cut));
        EXPECT_FALSE(parsed.has_value()) << "cut at " << cut;
    }
}

TEST(FuzzCodecs, TruncatedSignedMessagesRejectedOrUnverifiable) {
    // Every prefix of a valid signed-message encoding must either fail to
    // parse or fail verification — no truncation can yield a different
    // accepted message.
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P2", 7, crypto::SignatureAlgorithm::kFast);
    protocol::PaymentBody payment{3, "P2", {2.75, 1.25}};
    const auto msg = crypto::sign_message(*signer, "P2", wire::flat_encode(payment));
    const util::Bytes encoded = wire::flat_encode(msg);
    ASSERT_TRUE(verifies_with_payload(encoded, msg.payload, pki));
    for (std::size_t cut = 0; cut < encoded.size(); ++cut) {
        EXPECT_FALSE(verifies_with_payload(
            std::span<const std::uint8_t>(encoded.data(), cut), msg.payload, pki))
            << "truncation at " << cut << " still verifies the original payload";
    }
}

TEST(FuzzCodecs, FieldSwappedSignedMessagesNeverVerify) {
    // Splicing fields between two independently valid signed messages — the
    // classic signature-transplant attack — must always fail verification:
    // a signature binds (signer, payload) and covers the identity, so no
    // recombination is valid.
    crypto::Pki pki;
    auto signer1 =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    auto signer2 =
        crypto::make_registered_signer(pki, "P2", 7, crypto::SignatureAlgorithm::kFast);
    const auto msg1 = crypto::sign_message(*signer1, "P1",
                                           wire::flat_encode(protocol::BidBody{1, "P1", 1.5}));
    const auto msg2 = crypto::sign_message(*signer2, "P2",
                                           wire::flat_encode(protocol::BidBody{1, "P2", 2.5}));
    ASSERT_TRUE(msg1.verify(pki));
    ASSERT_TRUE(msg2.verify(pki));

    // Every proper hybrid of the two messages (at least one field taken from
    // the other message) must be rejected.
    for (int mask = 1; mask < 7; ++mask) {
        crypto::SignedMessage hybrid = msg1;
        if (mask & 1) hybrid.signer = msg2.signer;
        if (mask & 2) hybrid.payload = msg2.payload;
        if (mask & 4) hybrid.signature = msg2.signature;
        EXPECT_FALSE(hybrid.verify(pki)) << "hybrid mask " << mask << " verified";
        // The forgery must also survive the wire round trip without
        // crashing, and stay rejected.
        const util::Bytes encoded = wire::flat_encode(hybrid);
        const auto reparsed = wire::SignedMessageView::parse(encoded);
        ASSERT_TRUE(reparsed.has_value());
        EXPECT_FALSE(reparsed->verify(pki)) << "reparsed hybrid mask " << mask;
    }
}

TEST(FuzzCodecs, MutatedMerkleSignedMessagesNeverVerify) {
    // Same mutation sweep as the kFast variant but over the hash-based
    // (Merkle/MSS) signature path, whose verifier walks attacker-controlled
    // tree proofs — it must reject without crashing on every mutant.
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P3", 4, crypto::SignatureAlgorithm::kMerkle);
    protocol::TerminateBody body{"offense (iii)", {"P2"}};
    const auto msg = crypto::sign_message(*signer, "P3", wire::flat_encode(body));
    const util::Bytes encoded = wire::flat_encode(msg);
    ASSERT_TRUE(verifies_with_payload(encoded, msg.payload, pki));

    util::Xoshiro256 rng{123};
    int accepted_mutants = 0;
    for (int trial = 0; trial < 300; ++trial) {
        util::Bytes mutated = encoded;
        const std::size_t flips = 1 + rng.uniform_int(0, 3);
        for (std::size_t f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
            mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
        }
        if (mutated == encoded) continue;
        if (verifies_with_payload(mutated, msg.payload, pki)) ++accepted_mutants;
    }
    EXPECT_EQ(accepted_mutants, 0);
}

TEST(FuzzCodecs, StructuredMutationsOfBodiesHandledGracefully) {
    // Structured mutations of a valid MeterVectorBody encoding: byte flips,
    // chunk deletions, chunk duplications and length-prefix-style splices.
    // The decoder may accept or reject, but an accepted mutant must be
    // canonical.
    protocol::MeterVectorBody body;
    body.job_id = 11;
    body.phis = {{"P1", 0.2}, {"P2", 0.4}, {"P3", 0.6}, {"P4", 0.8}};
    const util::Bytes encoded = wire::flat_encode(body);
    protocol::MeterVectorBody other;
    other.job_id = 12;
    other.phis = {{"P9", 0.9}};
    const util::Bytes donor = wire::flat_encode(other);

    util::Xoshiro256 rng{321};
    for (int trial = 0; trial < 1500; ++trial) {
        util::Bytes mutated = encoded;
        switch (rng.uniform_int(0, 3)) {
            case 0: {  // flip
                const std::size_t pos =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
                break;
            }
            case 1: {  // delete a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, mutated.size() - start));
                mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                              mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
                break;
            }
            case 2: {  // duplicate a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, std::min<std::size_t>(16, mutated.size() - start)));
                util::Bytes chunk(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                                  mutated.begin() +
                                      static_cast<std::ptrdiff_t>(start + len));
                mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                               chunk.begin(), chunk.end());
                break;
            }
            default: {  // splice the tail of a second valid encoding
                const std::size_t cut = static_cast<std::size_t>(
                    rng.uniform_int(0, std::min(mutated.size(), donor.size()) - 1));
                mutated.resize(cut);
                mutated.insert(mutated.end(), donor.begin() + static_cast<std::ptrdiff_t>(
                                                  std::min(cut, donor.size())),
                               donor.end());
                break;
            }
        }
        expect_canonical<wire::MeterVectorView>(mutated);
    }
}

// ---- churn-plan and churn-message codecs ------------------------------------

TEST(FuzzCodecs, ChurnPlan) { fuzz_decoder<protocol::ChurnPlan>(15, 3000, 512); }
TEST(FuzzCodecs, ExcludeBody) { fuzz_view<wire::ExcludeView>(16, 3000, 256); }
TEST(FuzzCodecs, ReallocBody) { fuzz_view<wire::ReallocView>(17, 3000, 256); }

protocol::ChurnPlan rich_plan() {
    protocol::ChurnPlan plan;
    plan.events = {{"P3", 0.1, protocol::ChurnEventKind::kCrash},
                   {"P3", 0.5, protocol::ChurnEventKind::kRestart},
                   {"P2", 0.2, protocol::ChurnEventKind::kCrash},
                   {"P2", 0.9, protocol::ChurnEventKind::kRestartStale}};
    plan.losses = {{"P1", 0.2, 0.4}, {"P4", 0.0, 0.05}};
    plan.delays = {{"P1", 0.0, 0.1, 0.05}};
    plan.policy = {0.4, 0.04, 2.0, 0.2};
    return plan;
}

TEST(FuzzCodecs, ChurnPlanStructuredMutationsHandledGracefully) {
    // Same structured-mutation sweep as the wire bodies: flips, chunk
    // deletions, duplications and cross-encoding splices of a valid plan
    // encoding. The decoder may accept or reject; an accepted mutant must
    // re-serialize canonically (encode(decode(x)) is a fixed point).
    const util::Bytes encoded = rich_plan().serialize();
    protocol::ChurnPlan donor_plan;
    donor_plan.events = {{"P9", 3.0, protocol::ChurnEventKind::kCrash}};
    const util::Bytes donor = donor_plan.serialize();

    util::Xoshiro256 rng{654};
    for (int trial = 0; trial < 2000; ++trial) {
        util::Bytes mutated = encoded;
        switch (rng.uniform_int(0, 3)) {
            case 0: {  // flip
                const std::size_t pos =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
                break;
            }
            case 1: {  // delete a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, mutated.size() - start));
                mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                              mutated.begin() + static_cast<std::ptrdiff_t>(start + len));
                break;
            }
            case 2: {  // duplicate a chunk
                const std::size_t start =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                const std::size_t len = static_cast<std::size_t>(
                    rng.uniform_int(1, std::min<std::size_t>(16, mutated.size() - start)));
                util::Bytes chunk(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                                  mutated.begin() +
                                      static_cast<std::ptrdiff_t>(start + len));
                mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(start),
                               chunk.begin(), chunk.end());
                break;
            }
            default: {  // splice the tail of a second valid encoding
                const std::size_t cut = static_cast<std::size_t>(
                    rng.uniform_int(0, std::min(mutated.size(), donor.size()) - 1));
                mutated.resize(cut);
                mutated.insert(mutated.end(),
                               donor.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(cut, donor.size())),
                               donor.end());
                break;
            }
        }
        const auto parsed = protocol::ChurnPlan::deserialize(mutated);
        if (parsed.has_value()) {
            const util::Bytes first = parsed->serialize();
            const auto reparsed = protocol::ChurnPlan::deserialize(first);
            ASSERT_TRUE(reparsed.has_value());
            EXPECT_EQ(reparsed->serialize(), first);
        }
    }
}

TEST(FuzzCodecs, ChurnPlanSpecRoundTripsAndSurvivesGarbage) {
    const protocol::ChurnPlan plan = rich_plan();
    const auto parsed = protocol::ChurnPlan::parse(plan.spec());
    ASSERT_TRUE(parsed.has_value()) << plan.spec();
    EXPECT_EQ(parsed->serialize(), plan.serialize());

    // Corrupted spec text must never crash the parser; accepted text must
    // round-trip through spec() again.
    const std::string spec = plan.spec();
    util::Xoshiro256 rng{777};
    for (int trial = 0; trial < 2000; ++trial) {
        std::string mutated = spec;
        const int op = static_cast<int>(rng.uniform_int(0, 2));
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
        if (op == 0) {
            mutated[pos] = static_cast<char>(rng.uniform_int(32, 126));
        } else if (op == 1) {
            mutated.erase(pos, 1 + static_cast<std::size_t>(rng.uniform_int(0, 5)));
        } else {
            mutated.insert(pos, std::string(1, static_cast<char>(rng.uniform_int(32, 126))));
        }
        const auto reparsed = protocol::ChurnPlan::parse(mutated);
        if (reparsed.has_value()) {
            const auto again = protocol::ChurnPlan::parse(reparsed->spec());
            ASSERT_TRUE(again.has_value());
            EXPECT_EQ(again->serialize(), reparsed->serialize());
        }
    }
    // Pure garbage.
    for (int trial = 0; trial < 500; ++trial) {
        std::string junk(static_cast<std::size_t>(rng.uniform_int(0, 64)), '\0');
        for (auto& c : junk) c = static_cast<char>(rng.uniform_int(0, 255));
        (void)protocol::ChurnPlan::parse(junk);
    }
}

TEST(FuzzCodecs, PartialMeterSettlementNeverCrashes) {
    // Mid-run churn hands the settlement partial information: meters missing
    // for dead processors, realized counts anywhere from zero to the whole
    // load, arbitrary exclusion subsets. The canonical settlement must stay
    // total: full-size vector, zeros for the excluded, no throw for any
    // subset combination. Excluded entries hold NaN and an absurd count,
    // which must never reach a payment.
    util::Xoshiro256 rng{888};
    constexpr std::size_t kProcessors = 4;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    for (int trial = 0; trial < 2000; ++trial) {
        protocol::ChurnSettlementInputs inputs;
        inputs.kind = trial % 2 == 0 ? dlt::NetworkKind::kNcpFE
                                     : dlt::NetworkKind::kNcpNFE;
        inputs.z = rng.uniform(0.05, 0.5);
        inputs.block_count = 120;
        for (std::size_t i = 0; i < kProcessors; ++i) {
            const bool excluded = rng.uniform() < 0.25;
            inputs.excluded.push_back(excluded);
            inputs.bids.push_back(excluded ? nan : rng.uniform(0.5, 3.0));
            inputs.final_counts.push_back(
                excluded ? std::numeric_limits<std::size_t>::max()
                         : static_cast<std::size_t>(rng.uniform_int(0, 120)));
            if (excluded) {
                inputs.phis.emplace_back(nan);
            } else if (rng.uniform() < 0.7) {
                inputs.phis.emplace_back(rng.uniform(0.0, 2.0));
            } else {
                inputs.phis.emplace_back();
            }
        }
        mech::DlsBlCache mechanisms;
        const auto payments = protocol::churn_settlement_payments(inputs, mechanisms);
        ASSERT_EQ(payments.size(), kProcessors);
        for (std::size_t i = 0; i < kProcessors; ++i) {
            if (inputs.excluded[i]) {
                EXPECT_EQ(payments[i], 0.0) << i;
            }
            EXPECT_TRUE(std::isfinite(payments[i])) << i;
        }
    }
}

TEST(FuzzCodecs, UnknownFrameFloodIsDroppedAndCounted) {
    // A junk-spamming processor broadcasts frames with a wire type outside
    // the MsgType enum. Every receiving endpoint (each peer and the referee)
    // must drop every frame through the one shared dispatcher policy and
    // count it — and the run's economics must be untouched.
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 240;
    config.seed = 42;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.strategies.assign(config.true_w.size(), agents::truthful());
    constexpr std::size_t kFrames = 3;
    config.strategies[1] = agents::junk_spammer(kFrames);

    std::map<std::string, std::uint64_t> dropped;
    const auto outcome = protocol::run_protocol(
        config, [&](const protocol::RunInternals& internals) {
            auto& registry = internals.context.metrics_registry();
            for (const char* endpoint : {"P1", "P3", "P4", "referee"}) {
                dropped[endpoint] =
                    registry
                        .counter(protocol::kUnknownMessagesMetric,
                                 {{"endpoint", endpoint}, {"type", "9999"}})
                        .value();
            }
        });

    // Junk is noise, not an offense: the run settles exactly like an honest
    // one and nobody is fined.
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_EQ(outcome.fined_count(), 0u);
    // Every endpoint except the sender saw and dropped every frame.
    for (const auto& [endpoint, count] : dropped) {
        EXPECT_EQ(count, kFrames) << endpoint;
    }
}

// ---- flat wire codec (protocol/wire.hpp) ------------------------------------

// Flat vs round trip under random bytes: whatever a view accepts is
// canonical. Encode => view-accept is checked over the body zoo below.
TEST(FuzzFlatCodec, BidEquivalence) { fuzz_view<wire::BidView>(41, 3000, 128); }
TEST(FuzzFlatCodec, LoadBatchEquivalence) { fuzz_view<wire::LoadBatchView>(42, 2000, 512); }
TEST(FuzzFlatCodec, DoubleBidEvidenceEquivalence) {
    fuzz_view<wire::DoubleBidEvidenceView>(43, 2000, 512);
}
TEST(FuzzFlatCodec, AllocComplaintEquivalence) {
    fuzz_view<wire::AllocComplaintView>(44, 2000, 512);
}
TEST(FuzzFlatCodec, BidVectorEquivalence) { fuzz_view<wire::BidVectorView>(45, 2000, 512); }
TEST(FuzzFlatCodec, MediateRequestEquivalence) {
    fuzz_view<wire::MediateRequestView>(46, 3000, 256);
}
TEST(FuzzFlatCodec, MeterVectorEquivalence) {
    fuzz_view<wire::MeterVectorView>(47, 3000, 256);
}
TEST(FuzzFlatCodec, PaymentEquivalence) { fuzz_view<wire::PaymentView>(48, 3000, 256); }
TEST(FuzzFlatCodec, TerminateEquivalence) { fuzz_view<wire::TerminateView>(49, 3000, 256); }
TEST(FuzzFlatCodec, ExcludeEquivalence) { fuzz_view<wire::ExcludeView>(50, 3000, 256); }
TEST(FuzzFlatCodec, ReallocEquivalence) { fuzz_view<wire::ReallocView>(51, 3000, 256); }
TEST(FuzzFlatCodec, SignedMessageEquivalence) {
    fuzz_view<wire::SignedMessageView>(52, 3000, 512);
}

// Encodes one zoo body, and checks that its own view accepts the encoding
// (encode => view-accept) and rebuilds it canonically.
template <typename View, typename Body>
void add_to_zoo(std::vector<util::Bytes>& zoo, const Body& body) {
    const util::Bytes flat = wire::flat_encode(body);
    EXPECT_TRUE(View::parse(flat).has_value()) << "view rejects zoo entry " << zoo.size();
    expect_canonical<View>(flat);
    zoo.push_back(flat);
}

// A zoo of representative bodies — honest values plus the deviant shapes
// the strategy zoo produces (empty vectors, mutated bids, termination
// verdicts, churn exclusions/reallocations) and codec edge cases (empty
// strings, zero counts, negative and subnormal doubles).
std::vector<util::Bytes> body_zoo() {
    std::vector<util::Bytes> zoo;
    crypto::Pki pki;
    auto signer =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    protocol::DataSet data(3, 16);

    for (const protocol::BidBody& bid :
         {protocol::BidBody{1, "P1", 1.5}, protocol::BidBody{0, "", 0.0},
          protocol::BidBody{~0ull, "P10", -2.5e-308}}) {
        add_to_zoo<wire::BidView>(zoo, bid);
    }
    protocol::LoadBatch batch;
    batch.origin = "P1";
    for (std::size_t i = 0; i < 4; ++i) batch.blocks.push_back(data.block(i));
    add_to_zoo<wire::LoadBatchView>(zoo, batch);
    add_to_zoo<wire::LoadBatchView>(zoo, protocol::LoadBatch{});

    const auto first = crypto::sign_message(
        *signer, "P1", wire::flat_encode(protocol::BidBody{1, "P1", 1.5}));
    const auto second = crypto::sign_message(
        *signer, "P1", wire::flat_encode(protocol::BidBody{1, "P1", 2.5}));
    add_to_zoo<wire::SignedMessageView>(zoo, first);
    add_to_zoo<wire::DoubleBidEvidenceView>(zoo,
                                            protocol::DoubleBidEvidence{"P1", first, second});

    protocol::AllocComplaintBody complaint;
    complaint.kind = protocol::AllocComplaintKind::kOverShipped;
    complaint.complainant = "P2";
    complaint.expected_blocks = 5;
    complaint.received_blocks = 9;
    complaint.held_blocks = {data.block(5), data.block(6)};
    add_to_zoo<wire::AllocComplaintView>(zoo, complaint);

    add_to_zoo<wire::BidVectorView>(zoo, protocol::BidVectorBody{"P1", {first, second}});
    add_to_zoo<wire::MediateRequestView>(zoo, protocol::MediateRequestBody{"P3", {0, 7, 15}});

    protocol::MeterVectorBody meters;
    meters.job_id = 9;
    meters.phis = {{"P1", 0.25}, {"P2", 1e-300}, {"", -0.0}};
    add_to_zoo<wire::MeterVectorView>(zoo, meters);

    add_to_zoo<wire::PaymentView>(zoo, protocol::PaymentBody{3, "P2", {2.75, -1.25, 0.0}});
    add_to_zoo<wire::PaymentView>(zoo, protocol::PaymentBody{});

    add_to_zoo<wire::TerminateView>(zoo, protocol::TerminateBody{"offense (iii)", {"P2", "P4"}});
    add_to_zoo<wire::ExcludeView>(zoo, protocol::ExcludeBody{7, {"P3"}});
    add_to_zoo<wire::ReallocView>(zoo,
                                  protocol::ReallocBody{7, "P2", 12, {{"P1", 30}, {"P3", 18}}});
    return zoo;
}

// SHA-256 of every body_zoo() encoding, in zoo order. These are the signed
// bytes of the protocol: a change to this table is a wire-format change.
constexpr std::array<std::string_view, 16> kBodyZooDigests = {
    "56583c377fdb10a6dd56dfbdd8b9ffe49a18bd0bbbd00b1a7b414aea94c66f86",  // bid: honest
    "ae99417656b0170365d00c2768fb04acff1499c4a55fca66e66b76ab59829be9",  // bid: empty fields
    "b986cf2a7726ab85ee47e0a5171f721f2d62185768229a61211434b573098d76",  // bid: edge values
    "f862d3e0b76105e4041006e0c9e7ef854cef6a35489f622bab2b59d02b9ceb73",  // load batch: 4 blocks
    "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",  // load batch: empty
    "e9e8d2672e8e7711a304daf257e6b3a280962f2cc6d9ad9adf84bb7c240780fd",  // signed bid envelope
    "3099fa8081a126a52877378572098a0051e44f228f5c820fd31be9e40d495d89",  // double-bid evidence
    "0ac27cc83425e8335795576c3fd0549460fa4d99124e7cccabab053e5f59c323",  // alloc complaint
    "e0c19f683fdf0a3a93a0586f1d7f2a76aa7c9248ab26e34dda906fe5cec2b6a9",  // bid vector
    "eb8a4bea909a641840cf0bebe1938f496a0bef5a40fe4945deeb8580f6159ebd",  // mediate request
    "ab6ddf0d66577c6fe261b8a88747083da8d6ad3b04d96f6280c5568fc41dc475",  // meter vector
    "a7830b5f0c216e76981b448b71dd7ed1b31ccf009d1ce455096289e93c724074",  // payment vector
    "27f0e8f1e5e2f4342281721ca8cbe612e018235d75992aa3e4a4ead7100a572a",  // payment vector: empty
    "af2f5cf4cf3b53c45d2639a68b3161147e99cc7023938dec4fb4490ac21c32f6",  // terminate
    "c682bf0990fc47c5ef7f3403129c97e47a959471a8876342478763cadbd0ce73",  // exclude
    "7f0ea7a51e84a1db8a32b9475f4b0629893d8a5891fabaf1273b4c45c48a3add",  // realloc
};

// The full decoder matrix over one input — every body decoder sees every
// input, exactly like a hostile peer cross-sending message types.
void fuzz_decoder_matrix(std::span<const std::uint8_t> data) {
    expect_canonical<wire::BidView>(data);
    expect_canonical<wire::LoadBatchView>(data);
    expect_canonical<wire::DoubleBidEvidenceView>(data);
    expect_canonical<wire::AllocComplaintView>(data);
    expect_canonical<wire::BidVectorView>(data);
    expect_canonical<wire::MediateRequestView>(data);
    expect_canonical<wire::MeterVectorView>(data);
    expect_canonical<wire::PaymentView>(data);
    expect_canonical<wire::TerminateView>(data);
    expect_canonical<wire::ExcludeView>(data);
    expect_canonical<wire::ReallocView>(data);
    expect_canonical<wire::SignedMessageView>(data);
}

TEST(FuzzFlatCodec, EncodersMatchLegacyAcrossBodyZoo) {
    // The pinned digests are the bytes the legacy encoder produced for
    // this zoo; the encoders must keep producing exactly them. body_zoo()
    // itself checks encode => view-accept and a canonical rebuild per body.
    const std::vector<util::Bytes> zoo = body_zoo();
    ASSERT_EQ(zoo.size(), kBodyZooDigests.size());
    for (std::size_t i = 0; i < zoo.size(); ++i) {
        EXPECT_EQ(util::to_hex(crypto::Sha256::hash(zoo[i])), kBodyZooDigests[i])
            << "zoo entry " << i;
    }
}

TEST(FuzzFlatCodec, TruncationAndOverLengthRejectedAcrossBodyZoo) {
    // Every strict prefix and every over-length extension of a valid
    // encoding runs through the whole decoder matrix: no decoder may crash
    // or accept a non-canonical input at any cut (the wire format requires
    // exact exhaustion, so the matching type rejects them all).
    for (const util::Bytes& wire_bytes : body_zoo()) {
        for (std::size_t cut = 0; cut < wire_bytes.size(); ++cut) {
            fuzz_decoder_matrix(std::span<const std::uint8_t>(wire_bytes.data(), cut));
        }
        util::Bytes padded = wire_bytes;
        for (std::uint8_t junk : {std::uint8_t{0}, std::uint8_t{0xff}}) {
            padded.push_back(junk);
            fuzz_decoder_matrix(padded);
        }
    }
}

TEST(FuzzFlatCodec, StructuredMutationsKeepAcceptSetsAligned) {
    // Flips, chunk deletions, duplications and cross-encoding splices over
    // the whole body zoo: after every mutation every decoder must either
    // reject or accept a canonical encoding (crashes fail here too).
    const std::vector<util::Bytes> zoo = body_zoo();
    util::Xoshiro256 rng{4242};
    for (int trial = 0; trial < 4000; ++trial) {
        util::Bytes mutated = zoo[static_cast<std::size_t>(
            rng.uniform_int(0, zoo.size() - 1))];
        switch (rng.uniform_int(0, 3)) {
            case 0: {  // flip
                const std::size_t pos =
                    static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
                mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
                break;
            }
            case 1: {  // truncate
                mutated.resize(static_cast<std::size_t>(
                    rng.uniform_int(0, mutated.size() - 1)));
                break;
            }
            case 2: {  // over-length: append junk
                const std::size_t extra =
                    static_cast<std::size_t>(rng.uniform_int(1, 16));
                for (std::size_t k = 0; k < extra; ++k) {
                    mutated.push_back(
                        static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
                }
                break;
            }
            default: {  // transplant: splice the tail of another zoo member
                const util::Bytes& donor = zoo[static_cast<std::size_t>(
                    rng.uniform_int(0, zoo.size() - 1))];
                const std::size_t cut = static_cast<std::size_t>(rng.uniform_int(
                    0, std::min(mutated.size(), donor.size()) - 1));
                mutated.resize(cut);
                mutated.insert(mutated.end(),
                               donor.begin() + static_cast<std::ptrdiff_t>(
                                                   std::min(cut, donor.size())),
                               donor.end());
                break;
            }
        }
        fuzz_decoder_matrix(mutated);
    }
}

TEST(FuzzFlatCodec, SignedFieldTransplantsNeverVerify) {
    // flat_signed recombinations of two valid envelopes — every proper
    // hybrid of (signer, payload, signature) must parse but fail view
    // verification, exactly like the owned-envelope transplant sweep above.
    crypto::Pki pki;
    auto signer1 =
        crypto::make_registered_signer(pki, "P1", 7, crypto::SignatureAlgorithm::kFast);
    auto signer2 =
        crypto::make_registered_signer(pki, "P2", 7, crypto::SignatureAlgorithm::kFast);
    const auto msg1 = crypto::sign_message(*signer1, "P1",
                                           wire::flat_encode(protocol::BidBody{1, "P1", 1.5}));
    const auto msg2 = crypto::sign_message(*signer2, "P2",
                                           wire::flat_encode(protocol::BidBody{1, "P2", 2.5}));
    EXPECT_EQ(wire::flat_signed(msg1.signer, msg1.payload, msg1.signature),
              wire::flat_encode(msg1));
    for (int mask = 1; mask < 7; ++mask) {
        const crypto::SignedMessage& s = (mask & 1) ? msg2 : msg1;
        const crypto::SignedMessage& p = (mask & 2) ? msg2 : msg1;
        const crypto::SignedMessage& g = (mask & 4) ? msg2 : msg1;
        const util::Bytes hybrid = wire::flat_signed(s.signer, p.payload, g.signature);
        const auto view = wire::SignedMessageView::parse(hybrid);
        ASSERT_TRUE(view.has_value()) << "hybrid mask " << mask;
        EXPECT_FALSE(view->verify(pki)) << "hybrid mask " << mask << " verified";
        // The owned copy dispute evidence carries is rejected too, and
        // re-encodes to the same bytes.
        const crypto::SignedMessage owned = view->to_owned();
        EXPECT_FALSE(owned.verify(pki));
        EXPECT_EQ(wire::flat_encode(owned), hybrid);
    }
}

// `header` followed by a u64 `count` and `count` copies of `record`: a
// repeated-field body with every element present.
util::Bytes with_records(util::ByteWriter header, std::uint64_t count,
                         const util::Bytes& record) {
    header.u64(count);
    util::Bytes out = header.take();
    out.reserve(out.size() + count * record.size());
    for (std::uint64_t i = 0; i < count; ++i) out.insert(out.end(), record.begin(), record.end());
    return out;
}

// The repeated-field cap must never drop a message a run sends. The scale
// stage runs m = 2048: its bid-vector response, payment vector and meter
// vector (m entries each) parse through their views, while a count of
// kSanityCap + 1 is rejected even with every element present (and
// kSanityCap itself still parses, so the cap is what rejects).
TEST(WireCap, GateSizedBodiesParseAndCountsPastTheCapAreRejected) {
    constexpr std::size_t kM = 2048;
    static_assert(wire::kSanityCap >= 2 * kM);

    protocol::BidVectorBody bids;
    bids.submitter = "P1";
    protocol::PaymentBody payments;
    payments.job_id = 7;
    payments.processor = "P1";
    protocol::MeterVectorBody meters;
    meters.job_id = 7;
    for (std::size_t i = 0; i < kM; ++i) {
        const std::string name = protocol::proc_name(static_cast<protocol::ProcId>(i));
        const protocol::BidBody bid{7, name, 1.0 + 0.01 * static_cast<double>(i)};
        bids.bids.push_back({name, wire::flat_encode(bid), util::Bytes(32, 0x5a)});
        payments.payments.push_back(0.5 + static_cast<double>(i));
        meters.phis.emplace_back(name, 0.25 * static_cast<double>(i));
    }
    const util::Bytes bid_bytes = wire::flat_encode(bids);
    const auto bid_view = wire::BidVectorView::parse(bid_bytes);
    ASSERT_TRUE(bid_view.has_value());
    EXPECT_EQ(bid_view->bid_count, kM);
    EXPECT_EQ(wire::flat_encode(bid_view->to_owned()), bid_bytes);
    const auto payment_view = wire::PaymentView::parse(wire::flat_encode(payments));
    ASSERT_TRUE(payment_view.has_value());
    EXPECT_EQ(payment_view->payment_count, kM);
    const auto meter_view = wire::MeterVectorView::parse(wire::flat_encode(meters));
    ASSERT_TRUE(meter_view.has_value());
    EXPECT_EQ(meter_view->phi_count, kM);

    constexpr std::uint64_t kCap = wire::kSanityCap;
    {
        util::ByteWriter header;
        header.str("P1");
        util::ByteWriter record;  // one empty signed envelope, length-prefixed
        for (int field = 0; field < 4; ++field) record.u64(field == 0 ? 24 : 0);
        const util::Bytes entry = record.take();
        EXPECT_TRUE(wire::BidVectorView::parse(with_records(header, kCap, entry)).has_value());
        EXPECT_FALSE(
            wire::BidVectorView::parse(with_records(header, kCap + 1, entry)).has_value());
    }
    {
        util::ByteWriter header;
        header.str("payments");
        header.u64(7);
        header.str("P1");
        const util::Bytes entry(8, 0);  // one f64
        EXPECT_TRUE(wire::PaymentView::parse(with_records(header, kCap, entry)).has_value());
        EXPECT_FALSE(
            wire::PaymentView::parse(with_records(header, kCap + 1, entry)).has_value());
    }
    {
        util::ByteWriter header;
        header.str("meters");
        header.u64(7);
        const util::Bytes entry(16, 0);  // empty name + f64
        EXPECT_TRUE(wire::MeterVectorView::parse(with_records(header, kCap, entry)).has_value());
        EXPECT_FALSE(
            wire::MeterVectorView::parse(with_records(header, kCap + 1, entry)).has_value());
    }
}

TEST(FuzzCodecs, BlockMutationsFailIntegrity) {
    protocol::DataSet data(3, 16);
    const protocol::Block block = data.block(7);
    const util::Bytes encoded = wire::flat_encode(block);
    const auto original = wire::BlockView::parse(encoded);
    ASSERT_TRUE(original.has_value());
    ASSERT_TRUE(protocol::DataSet::verify_block(data.root(), original->to_owned()));
    util::Xoshiro256 rng{5};
    for (int trial = 0; trial < 500; ++trial) {
        util::Bytes mutated = encoded;
        const std::size_t pos =
            static_cast<std::size_t>(rng.uniform_int(0, mutated.size() - 1));
        mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
        const auto parsed = wire::BlockView::parse(mutated);
        if (parsed.has_value()) {
            EXPECT_FALSE(protocol::DataSet::verify_block(data.root(), parsed->to_owned()))
                << "mutation at " << pos;
        }
    }
}

}  // namespace
}  // namespace dlsbl
