// Unit tests for the protocol's building blocks: data blocks, the ledger,
// the meter bank, and the wire-message codec.
#include <gtest/gtest.h>

#include "protocol/blocks.hpp"
#include "protocol/ledger.hpp"
#include "protocol/messages.hpp"
#include "protocol/meter.hpp"
#include "protocol/wire.hpp"

namespace dlsbl::protocol {
namespace {

// ---- DataSet / blocks --------------------------------------------------------

TEST(Blocks, BlocksVerifyAgainstRoot) {
    DataSet data(42, 17);
    for (std::uint64_t id = 0; id < 17; ++id) {
        const Block block = data.block(id);
        EXPECT_TRUE(DataSet::verify_block(data.root(), block)) << id;
    }
}

TEST(Blocks, TamperedPayloadFails) {
    DataSet data(42, 8);
    Block block = data.block(3);
    block.payload_digest[0] ^= 0x01;
    EXPECT_FALSE(DataSet::verify_block(data.root(), block));
}

TEST(Blocks, MismatchedIdFails) {
    DataSet data(42, 8);
    Block block = data.block(3);
    block.id = 4;  // proof still binds index 3
    EXPECT_FALSE(DataSet::verify_block(data.root(), block));
}

TEST(Blocks, DifferentJobsDifferentRoots) {
    EXPECT_NE(DataSet(1, 16).root(), DataSet(2, 16).root());
}

TEST(Blocks, BlockSerializationRoundTrip) {
    DataSet data(7, 9);
    const Block block = data.block(5);
    const util::Bytes encoded = wire::flat_encode(block);
    const auto parsed = wire::BlockView::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->id, 5u);
    EXPECT_TRUE(DataSet::verify_block(data.root(), parsed->to_owned()));
}

TEST(Blocks, OutOfRangeThrows) {
    DataSet data(7, 9);
    EXPECT_THROW(data.block(9), std::out_of_range);
    EXPECT_THROW(DataSet(7, 0), std::invalid_argument);
}

TEST(Blocks, LargestRemainderSumsExactly) {
    const std::vector<double> alpha{0.405, 0.27, 0.325};
    for (std::size_t total : {10u, 100u, 240u, 999u}) {
        const auto counts = DataSet::blocks_for_allocation(total, alpha);
        std::size_t sum = 0;
        for (std::size_t c : counts) sum += c;
        EXPECT_EQ(sum, total) << total;
    }
}

TEST(Blocks, LargestRemainderProportional) {
    const auto counts =
        DataSet::blocks_for_allocation(1000, {0.5, 0.3, 0.2});
    EXPECT_EQ(counts[0], 500u);
    EXPECT_EQ(counts[1], 300u);
    EXPECT_EQ(counts[2], 200u);
}

TEST(Blocks, LargestRemainderHandlesTinyShares) {
    const auto counts = DataSet::blocks_for_allocation(10, {0.96, 0.02, 0.02});
    std::size_t sum = 0;
    for (std::size_t c : counts) sum += c;
    EXPECT_EQ(sum, 10u);
    EXPECT_GE(counts[0], 9u);
}

// ---- Ledger --------------------------------------------------------------------

TEST(Ledger, TransfersConserveMoney) {
    Ledger ledger;
    ledger.open_account("A");
    ledger.open_account("B");
    ledger.transfer("A", "B", 5.0, "test");
    EXPECT_DOUBLE_EQ(ledger.balance("A"), -5.0);
    EXPECT_DOUBLE_EQ(ledger.balance("B"), 5.0);
    EXPECT_DOUBLE_EQ(ledger.total(), 0.0);
    EXPECT_EQ(ledger.history().size(), 1u);
    EXPECT_EQ(ledger.history()[0].memo, "test");
}

TEST(Ledger, UnknownAccountsThrow) {
    Ledger ledger;
    ledger.open_account("A");
    EXPECT_THROW(ledger.transfer("A", "ghost", 1.0), std::out_of_range);
    EXPECT_THROW((void)ledger.balance("ghost"), std::out_of_range);
    EXPECT_THROW(ledger.open_account("A"), std::invalid_argument);
    EXPECT_FALSE(ledger.has_account("ghost"));
}

// ---- MeterBank -------------------------------------------------------------------

TEST(Meter, RecordsElapsed) {
    MeterBank meters;
    meters.start("P1", 2.0);
    EXPECT_TRUE(meters.started("P1"));
    EXPECT_FALSE(meters.finished("P1"));
    meters.stop("P1", 5.5);
    EXPECT_TRUE(meters.finished("P1"));
    EXPECT_DOUBLE_EQ(meters.elapsed("P1"), 3.5);
    EXPECT_DOUBLE_EQ(meters.started_at("P1"), 2.0);
    EXPECT_EQ(meters.finished_count(), 1u);
}

TEST(Meter, MisuseThrows) {
    MeterBank meters;
    EXPECT_THROW(meters.stop("P1", 1.0), std::logic_error);
    EXPECT_THROW((void)meters.elapsed("P1"), std::logic_error);
    meters.start("P1", 0.0);
    EXPECT_THROW(meters.start("P1", 1.0), std::logic_error);
    meters.stop("P1", 1.0);
    EXPECT_THROW(meters.start("P1", 2.0), std::logic_error);  // meters are one-shot
}

// ---- message codecs ----------------------------------------------------------------

TEST(Messages, BidBodyRoundTrip) {
    BidBody body{7, "P3", 1.25};
    const util::Bytes encoded = wire::flat_encode(body);
    const auto parsed = wire::BidView::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->job_id, 7u);
    EXPECT_EQ(parsed->processor, "P3");
    EXPECT_DOUBLE_EQ(parsed->bid, 1.25);
}

TEST(Messages, BidBodyRejectsGarbage) {
    EXPECT_FALSE(wire::BidView::parse(util::to_bytes("nonsense")).has_value());
    EXPECT_FALSE(wire::BidView::parse({}).has_value());
    // Wrong magic string.
    util::ByteWriter w;
    w.str("notbid");
    w.u64(1);
    w.str("P1");
    w.f64(1.0);
    EXPECT_FALSE(wire::BidView::parse(w.data()).has_value());
}

TEST(Messages, PaymentBodyRoundTrip) {
    PaymentBody body;
    body.job_id = 3;
    body.processor = "P2";
    body.payments = {0.5, -0.25, 1.75};
    const util::Bytes encoded = wire::flat_encode(body);
    const auto parsed = wire::PaymentView::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->job_id, 3u);
    EXPECT_EQ(parsed->processor, "P2");
    std::vector<double> payments;
    wire::Cursor c = parsed->payments;
    for (std::uint64_t i = 0; i < parsed->payment_count; ++i) payments.push_back(c.f64());
    EXPECT_EQ(payments, body.payments);
}

TEST(Messages, MeterVectorRoundTrip) {
    MeterVectorBody body;
    body.job_id = 9;
    body.phis = {{"P1", 0.5}, {"P2", 0.75}};
    const util::Bytes encoded = wire::flat_encode(body);
    const auto parsed = wire::MeterVectorView::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    ASSERT_EQ(parsed->phi_count, 2u);
    wire::Cursor c = parsed->phis;
    EXPECT_EQ(c.str(), "P1");
    EXPECT_DOUBLE_EQ(c.f64(), 0.5);
    EXPECT_EQ(c.str(), "P2");
    EXPECT_DOUBLE_EQ(c.f64(), 0.75);
}

TEST(Messages, AllocComplaintRoundTrip) {
    DataSet data(1, 8);
    AllocComplaintBody body;
    body.kind = AllocComplaintKind::kOverShipped;
    body.complainant = "P4";
    body.expected_blocks = 2;
    body.received_blocks = 4;
    body.held_blocks = {data.block(0), data.block(1)};
    const util::Bytes encoded = wire::flat_encode(body);
    const auto parsed = wire::AllocComplaintView::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    const AllocComplaintBody owned = parsed->to_owned();
    EXPECT_EQ(owned.kind, AllocComplaintKind::kOverShipped);
    EXPECT_EQ(owned.complainant, "P4");
    EXPECT_EQ(owned.expected_blocks, 2u);
    EXPECT_EQ(owned.received_blocks, 4u);
    ASSERT_EQ(owned.held_blocks.size(), 2u);
    EXPECT_TRUE(DataSet::verify_block(data.root(), owned.held_blocks[1]));
}

TEST(Messages, AllocComplaintRejectsBadKind) {
    AllocComplaintBody body;
    body.kind = AllocComplaintKind::kShortShipped;
    body.complainant = "P1";
    auto bytes = wire::flat_encode(body);
    bytes[0] = 0;  // clobber the kind byte
    EXPECT_FALSE(wire::AllocComplaintView::parse(bytes).has_value());
    bytes[0] = 4;  // one past the last kind
    EXPECT_FALSE(wire::AllocComplaintView::parse(bytes).has_value());
}

TEST(Messages, TerminateBodyRoundTrip) {
    TerminateBody body{"double-bid", {"P2", "P5"}};
    const util::Bytes encoded = wire::flat_encode(body);
    const auto parsed = wire::TerminateView::parse(encoded);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->reason, "double-bid");
    ASSERT_EQ(parsed->fined_count, 2u);
    wire::Cursor c = parsed->fined;
    EXPECT_EQ(c.str(), "P2");
    EXPECT_EQ(c.str(), "P5");
}

TEST(Messages, TruncationRejectedEverywhere) {
    BidBody bid{1, "P1", 2.0};
    auto bytes = wire::flat_encode(bid);
    bytes.pop_back();
    EXPECT_FALSE(wire::BidView::parse(bytes).has_value());

    PaymentBody pay;
    pay.processor = "P1";
    pay.payments = {1.0, 2.0};
    auto pbytes = wire::flat_encode(pay);
    pbytes.resize(pbytes.size() - 3);
    EXPECT_FALSE(wire::PaymentView::parse(pbytes).has_value());
}

}  // namespace
}  // namespace dlsbl::protocol
