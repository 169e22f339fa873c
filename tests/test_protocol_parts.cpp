// Unit tests for the protocol's building blocks: data blocks, the ledger,
// the meter bank, the wire-message codec, dense processor ids, the intake
// tally, a node's bid intake driven by hand through a minimal
// Clock/Transport, and the sim driver's delivery of one broadcast.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <stdexcept>

#include "protocol/blocks.hpp"
#include "protocol/context.hpp"
#include "protocol/drivers/drivers.hpp"
#include "protocol/ledger.hpp"
#include "protocol/messages.hpp"
#include "protocol/meter.hpp"
#include "protocol/node.hpp"
#include "protocol/referee.hpp"
#include "protocol/verify_queue.hpp"
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
    MeterBank meters(2);
    meters.start(0, 2.0);
    EXPECT_TRUE(meters.started(0));
    EXPECT_FALSE(meters.finished(0));
    EXPECT_FALSE(meters.started(1));
    meters.stop(0, 5.5);
    EXPECT_TRUE(meters.finished(0));
    EXPECT_DOUBLE_EQ(meters.elapsed(0), 3.5);
    // A reallocated batch reopens a meter; overlapping segments sum into φ.
    meters.start(1, 1.0);
    meters.resume(1, 2.0);
    meters.stop(1, 3.0);
    EXPECT_FALSE(meters.finished(1));
    meters.stop(1, 4.5);
    EXPECT_TRUE(meters.finished(1));
    EXPECT_DOUBLE_EQ(meters.elapsed(1), (3.0 - 1.0) + (4.5 - 2.0));
}

TEST(Meter, MisuseThrows) {
    MeterBank meters(2);
    EXPECT_THROW(meters.stop(0, 1.0), std::logic_error);
    EXPECT_THROW(meters.resume(0, 1.0), std::logic_error);
    EXPECT_THROW((void)meters.elapsed(0), std::logic_error);
    meters.start(0, 0.0);
    EXPECT_THROW(meters.start(0, 1.0), std::logic_error);
    meters.stop(0, 1.0);
    EXPECT_THROW(meters.start(0, 2.0), std::logic_error);  // meters are one-shot
    EXPECT_THROW(meters.stop(0, 2.0), std::logic_error);
    EXPECT_THROW(meters.start(2, 0.0), std::out_of_range);  // no such processor
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

// ---- dense processor ids ------------------------------------------------------

TEST(ProcIds, ParseExactlyTheProcessorNames) {
    EXPECT_EQ(parse_proc_id("P1", 3), ProcId{0});
    EXPECT_EQ(parse_proc_id("P3", 3), ProcId{2});
    for (const char* bad : {"P4", "P0", "P01", "p1", "P", "", "P1x", "Px", "P-1", "P+1",
                            "user", "referee", "P99999999999"}) {
        EXPECT_FALSE(parse_proc_id(bad, 3).has_value()) << bad;
    }
    for (ProcId id = 0; id < 1024; ++id) {
        EXPECT_EQ(parse_proc_id(proc_name(id), 1024), id);
    }
}

TEST(ProcIds, ChurnPlanNamingAnUnknownProcessorIsRejectedByName) {
    ProtocolConfig config;
    config.true_w = {1.0, 2.0, 1.5};
    for (const char* name : {"P4", "P01", "P10"}) {
        config.churn_plan.events = {{name, 0.0, ChurnEventKind::kCrash}};
        try {
            config.validate();
            ADD_FAILURE() << name << " accepted";
        } catch (const std::invalid_argument& error) {
            EXPECT_EQ(std::string(error.what()),
                      std::string("ProtocolConfig: churn plan names unknown processor ") +
                          name);
        }
    }
    config.churn_plan.events = {{"P3", 0.0, ChurnEventKind::kCrash}};
    EXPECT_NO_THROW(config.validate());
}

// NaN passes every `< 0` test and an infinite time never fires; either one
// used to reach the simulator, which aborts on a non-finite event time.
TEST(ChurnPlanSpec, NonFiniteAndNegativeValuesAreRejected) {
    for (const char* spec :
         {"crash:P1@nan", "crash:P1@inf", "restart:P1@-inf", "crash:P1@-0.5",
          "loss:P1@nan-1", "loss:P1@0.1-inf", "loss:P1@0.5-0.1", "delay:P1@0-nan+0.1",
          "delay:P1@0-1+inf", "delay:P1@0-1+-0.1", "policy:bid=inf", "policy:detect=nan",
          "policy:grace=-inf", "policy:pay=0"}) {
        EXPECT_FALSE(ChurnPlan::parse(spec).has_value()) << spec;
    }
    EXPECT_TRUE(ChurnPlan::parse("crash:P1@0.5;loss:P1@0-1;delay:P1@0-1+0.1;policy:bid=1")
                    .has_value());

    ChurnPlan plan;
    plan.events = {{"P1", std::numeric_limits<double>::quiet_NaN(), ChurnEventKind::kCrash}};
    EXPECT_THROW(plan.validate(), std::invalid_argument);
    plan.events.clear();
    plan.policy.payment_timeout = std::numeric_limits<double>::infinity();
    EXPECT_THROW(plan.validate(), std::invalid_argument);
}

TEST(SenderTally, CountsEachSenderOnceThroughQueueRecordReplayAndExclude) {
    SenderTally tally(3);
    tally.queued(0);
    tally.queued(0);  // two envelopes, one sender
    EXPECT_EQ(tally.active_covered(), 1u);
    tally.record(0);  // recorded during the replay of the first envelope
    tally.replayed(0);
    tally.replayed(0);
    EXPECT_EQ(tally.active_recorded(), 1u);
    EXPECT_EQ(tally.active_covered(), 1u);

    tally.queued(1);
    tally.replayed(1);  // failed verification: no longer covered
    EXPECT_EQ(tally.active_covered(), 1u);
    EXPECT_EQ(tally.active_recorded(), 1u);

    tally.record(2);  // eager path: recorded without being queued
    tally.record(2);
    EXPECT_EQ(tally.active_recorded(), 2u);
    tally.exclude(2);
    tally.exclude(2);
    EXPECT_EQ(tally.active(), 2u);
    EXPECT_EQ(tally.active_recorded(), 1u);
    EXPECT_EQ(tally.active_covered(), 1u);
    EXPECT_TRUE(tally.excluded(2));
    EXPECT_TRUE(tally.recorded(2));
    tally.exclude(1);  // the round closes over sender 0 alone
    EXPECT_EQ(tally.active(), tally.active_recorded());
}

// ---- endpoint cores driven by hand ---------------------------------------------

// Time stands still and nothing is delivered: scheduled callbacks are
// dropped and sent frames only counted, so a test feeds a core exactly the
// messages it names.
class StillClock final : public Clock {
 public:
    [[nodiscard]] double now() const override { return 0.0; }
    void call_at(double, std::function<void()>) override {}
    void call_after(double, std::function<void()>) override {}
};

class CountingTransport final : public Transport {
 public:
    std::size_t frames = 0;
    void unicast(const std::string&, const std::string&, std::uint32_t, util::Bytes,
                 std::uint64_t) override {
        ++frames;
    }
    void broadcast(const std::string&, std::uint32_t, util::Bytes, std::uint64_t) override {
        ++frames;
    }
    void transfer_load(const std::string&, const std::string&, double, std::uint32_t,
                       util::Bytes, std::uint64_t) override {
        ++frames;
    }
    [[nodiscard]] double bus_free_at() const override { return 0.0; }
    void note_phase(double, const std::string&) override {}
    void note_verdict(double, const std::string&, const std::string&) override {}
    void note_compute_start(double, const std::string&, const std::string&, std::uint64_t,
                            std::uint64_t) override {}
    void note_compute_end(double, const std::string&, std::uint64_t, std::uint64_t) override {}
    void note_churn(double, const std::string&, const std::string&) override {}
    [[nodiscard]] obs::SpanSink* span_sink() override { return nullptr; }
};

ProtocolConfig three_processors(std::size_t verify_batch) {
    ProtocolConfig config;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5};
    config.block_count = 60;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.verify_batch = verify_batch;
    return config;
}

// `who` must outlive the message: WireMessage::from views it.
WireMessage signed_bid(RunContext& context, crypto::Signer& signer, std::string_view who,
                       double value) {
    BidBody body;
    body.job_id = context.job_id();
    body.processor = std::string(who);
    body.bid = value;
    WireMessage message;
    message.from = who;
    message.from_id = context.proc_id(who);
    message.type = to_wire(MsgType::kBid);
    message.payload = util::share(wire::flat_encode(
        crypto::sign_message(signer, std::string(who), wire::flat_encode(body))));
    return message;
}

// A validly signed bid from a PKI identity that is not a processor (here the
// user's key, naming itself) must not enter the bid set: it used to, and the
// round then waited for m + 1 bids that never come.
TEST(NodeIntake, BidFromNonProcessorKeyIsDroppedAndTheRoundCloses) {
    for (const std::size_t batch : {std::size_t{16}, std::size_t{1}}) {
        StillClock clock;
        CountingTransport transport;
        RunContext context(clock, transport, three_processors(batch));
        const auto kFast = crypto::SignatureAlgorithm::kFast;
        auto p1 = crypto::make_registered_signer(context.pki(), "P1", 1, kFast);
        auto p2 = crypto::make_registered_signer(context.pki(), "P2", 2, kFast);
        auto p3 = crypto::make_registered_signer(context.pki(), "P3", 3, kFast);
        auto user = crypto::make_registered_signer(context.pki(), context.user_name(), 9, kFast);

        NodeCore node(context, 1, std::move(p2), Strategy{});
        node.on_start();  // records its own bid
        node.on_message(signed_bid(context, *user, context.user_name(), 0.5));
        node.on_message(signed_bid(context, *p1, "P1", 1.0));
        EXPECT_TRUE(node.allocation().empty()) << "batch " << batch;
        node.on_message(signed_bid(context, *p3, "P3", 1.5));
        ASSERT_EQ(node.allocation().size(), 3u) << "batch " << batch;
        EXPECT_GT(node.blocks_assigned(), 0u) << "batch " << batch;
        EXPECT_EQ(context.phase(), Phase::kAllocating) << "batch " << batch;
    }
}

// A bid's bytes exist once per run: the node keeps a reference to the buffer
// it was delivered in, on the eager and on the queued path alike.
TEST(NodeIntake, KeepsTheDeliveredBidBufferNotACopy) {
    for (const std::size_t batch : {std::size_t{16}, std::size_t{1}}) {
        StillClock clock;
        CountingTransport transport;
        RunContext context(clock, transport, three_processors(batch));
        const auto kFast = crypto::SignatureAlgorithm::kFast;
        auto p1 = crypto::make_registered_signer(context.pki(), "P1", 1, kFast);
        auto p2 = crypto::make_registered_signer(context.pki(), "P2", 2, kFast);
        auto p3 = crypto::make_registered_signer(context.pki(), "P3", 3, kFast);

        NodeCore node(context, 1, std::move(p2), Strategy{});
        node.on_start();
        const WireMessage bid1 = signed_bid(context, *p1, "P1", 1.0);
        const WireMessage bid3 = signed_bid(context, *p3, "P3", 1.5);
        node.on_message(bid1);
        node.on_message(bid3);
        ASSERT_EQ(node.allocation().size(), 3u) << "batch " << batch;
        // One reference here, one in the node's bid table: no copy.
        EXPECT_EQ(bid1.payload.use_count(), 2) << "batch " << batch;
        EXPECT_EQ(bid3.payload.use_count(), 2) << "batch " << batch;
    }
}

// A frame as the driver delivers it; `from` must outlive the message.
WireMessage frame(const RunContext& context, std::string_view from, MsgType type,
                  util::Bytes payload) {
    WireMessage message;
    message.from = from;
    message.from_id = context.proc_id(from);
    message.type = to_wire(type);
    message.payload = util::share(std::move(payload));
    return message;
}

bool any_fined(const RefereeCore& referee) {
    return std::ranges::any_of(referee.fines(),
                               [](const std::optional<double>& fine) { return fine.has_value(); });
}

// The referee takes accusations, allocation complaints and bid vectors from
// processors only. Taken in, a complaint from the user would open a dispute
// and send the user a bid-vector request that nothing answers, so the dispute
// would never close; every such frame is dropped before it can act.
TEST(RefereeIntake, FramesFromNonProcessorsAreDropped) {
    StillClock clock;
    CountingTransport transport;
    RunContext context(clock, transport, three_processors(1));
    RefereeCore referee(context);
    context.post_fine(1.0);
    const std::string& user = context.user_name();

    AllocComplaintBody complaint;
    complaint.complainant = user;
    referee.on_message(
        frame(context, user, MsgType::kAllocComplaint, wire::flat_encode(complaint)));
    DoubleBidEvidence evidence;
    evidence.accused = "P1";
    referee.on_message(
        frame(context, user, MsgType::kAccuseDoubleBid, wire::flat_encode(evidence)));
    BidVectorBody vector;
    vector.submitter = user;
    referee.on_message(
        frame(context, user, MsgType::kBidVectorResponse, wire::flat_encode(vector)));
    EXPECT_EQ(transport.frames, 0u);
    EXPECT_FALSE(context.terminated());
    EXPECT_FALSE(any_fined(referee));

    // A processor's complaint does open the dispute (one bid-vector request
    // each to P1, the load origin, and P2), and the user still cannot answer.
    complaint.complainant = "P2";
    referee.on_message(
        frame(context, "P2", MsgType::kAllocComplaint, wire::flat_encode(complaint)));
    EXPECT_EQ(transport.frames, 2u);
    referee.on_message(
        frame(context, user, MsgType::kBidVectorResponse, wire::flat_encode(vector)));
    EXPECT_EQ(transport.frames, 2u);
    EXPECT_FALSE(context.terminated());
    EXPECT_FALSE(any_fined(referee));
}

// Only a processor can double-bid: accusing any other name is unfounded and
// fines the accuser, even when that name's key really signed two different
// "bids".
TEST(RefereeIntake, AccusingANonProcessorIsUnfounded) {
    StillClock clock;
    CountingTransport transport;
    RunContext context(clock, transport, three_processors(1));
    const std::string& user = context.user_name();
    auto user_signer = crypto::make_registered_signer(context.pki(), user, 9,
                                                      crypto::SignatureAlgorithm::kFast);
    RefereeCore referee(context);
    context.post_fine(1.0);

    DoubleBidEvidence evidence;
    evidence.accused = user;
    evidence.first = crypto::sign_message(*user_signer, user,
                                          wire::flat_encode(BidBody{context.job_id(), user, 0.5}));
    evidence.second = crypto::sign_message(
        *user_signer, user, wire::flat_encode(BidBody{context.job_id(), user, 0.6}));
    referee.on_message(
        frame(context, "P2", MsgType::kAccuseDoubleBid, wire::flat_encode(evidence)));
    EXPECT_TRUE(context.terminated());
    ASSERT_TRUE(referee.fines()[1].has_value());
    EXPECT_DOUBLE_EQ(*referee.fines()[1], context.fine_amount());
    EXPECT_FALSE(referee.fines()[0].has_value());
    EXPECT_FALSE(referee.fines()[2].has_value());
}

// Records what the sim driver hands an endpoint.
class Inbox final : public Endpoint {
 public:
    explicit Inbox(std::string name) : Endpoint(std::move(name)) {}
    void on_message(const WireMessage& message) override { received.push_back(message); }
    std::vector<WireMessage> received;
};

// The sim driver turns one broadcast into one WireMessage per recipient, all
// sharing the one payload buffer, with the sender's name and id mapped once
// at attach (no id for the referee).
TEST(SimDriver, BroadcastSharesOnePayloadAndMapsTheSender) {
    auto driver = make_sim_driver(0.5, 0.0, 0.0);
    Inbox referee("referee"), p1("P1"), p2("P2"), p10("P10");
    for (Inbox* inbox : {&referee, &p1, &p2, &p10}) driver->attach(*inbox);
    driver->transport().broadcast("P2", 7, util::to_bytes("bid"));
    driver->transport().unicast("referee", "P1", 8, util::to_bytes("meters"));
    driver->run();

    ASSERT_EQ(referee.received.size(), 1u);
    ASSERT_EQ(p10.received.size(), 1u);
    ASSERT_EQ(p1.received.size(), 2u);
    EXPECT_TRUE(p2.received.empty());
    const util::SharedBytes& shared = referee.received[0].payload;
    EXPECT_EQ(*shared, util::to_bytes("bid"));
    EXPECT_EQ(p1.received[0].payload.get(), shared.get());
    EXPECT_EQ(p10.received[0].payload.get(), shared.get());
    EXPECT_EQ(shared.use_count(), 3);  // the three inboxes; the bus let go
    for (const Inbox* inbox : {&referee, &p1, &p10}) {
        EXPECT_EQ(inbox->received[0].from, "P2");
        EXPECT_EQ(inbox->received[0].from_id, std::optional<ProcId>{1});
        EXPECT_EQ(inbox->received[0].type, 7u);
    }
    EXPECT_EQ(p1.received[1].from, "referee");
    EXPECT_EQ(p1.received[1].from_id, std::nullopt);
    EXPECT_EQ(*p1.received[1].payload, util::to_bytes("meters"));
}

// Every payment computation of a run asks the context for its mechanism:
// the same public bids get the same DlsBl (one leave-one-out table per run);
// bids one ulp apart get a fresh one.
TEST(RunContextMechanisms, SameBidVectorSharesOneMechanism) {
    StillClock clock;
    CountingTransport transport;
    RunContext context(clock, transport, three_processors(16));
    const auto kind = context.config().kind;
    const double z = context.config().z;
    const std::vector<double> bids{1.0, 2.0, 1.5};
    const auto first = context.mechanisms().get(kind, z, bids);
    EXPECT_EQ(context.mechanisms().get(kind, z, bids).get(), first.get());
    auto nudged = bids;
    nudged[2] = std::nextafter(nudged[2], std::numeric_limits<double>::infinity());
    const auto other = context.mechanisms().get(kind, z, nudged);
    EXPECT_NE(other.get(), first.get());
    EXPECT_EQ(other->bid_instance().w, nudged);
}

}  // namespace
}  // namespace dlsbl::protocol
