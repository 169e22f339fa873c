// Bandwidth-charged control messages + trace-derived Gantt timelines.
#include <gtest/gtest.h>

#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "dlt/finish_time.hpp"
#include "sim/network.hpp"

namespace dlsbl::sim {
namespace {

class Sink final : public Process {
 public:
    explicit Sink(std::string name) : Process(std::move(name)) {}
    void on_message(const Envelope& envelope) override { inbox.push_back(envelope); }
    std::vector<Envelope> inbox;
};

TEST(Bandwidth, ControlMessagesOccupyBus) {
    Simulator sim;
    Network net(sim, 0.5, 0.0, /*control_seconds_per_byte=*/0.01);
    Sink a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    net.send("A", "B", 1, util::Bytes(100, 0xaa));  // 1 second of bus time
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 1.0);
    ASSERT_EQ(b.inbox.size(), 1u);
}

TEST(Bandwidth, ControlAndLoadShareTheBus) {
    Simulator sim;
    Network net(sim, 0.5, 0.0, 0.01);
    Sink a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    net.send("A", "B", 1, util::Bytes(100, 0xaa));       // holds bus 1.0 s
    net.transfer_load("A", "B", 0.4, 2, {});             // then 0.2 s
    sim.run();
    EXPECT_DOUBLE_EQ(net.bus_free_at(), 1.0 + 0.4 * 0.5);
    EXPECT_EQ(b.inbox.size(), 2u);
}

TEST(Bandwidth, BroadcastChargedOnce) {
    Simulator sim;
    Network net(sim, 0.5, 0.0, 0.01);
    Sink a{"A"}, b{"B"}, c{"C"};
    net.attach(a);
    net.attach(b);
    net.attach(c);
    net.broadcast("A", 1, util::Bytes(50, 0xbb));  // 0.5 s, one transmission
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 0.5);
    EXPECT_EQ(b.inbox.size(), 1u);
    EXPECT_EQ(c.inbox.size(), 1u);
}

TEST(Bandwidth, ZeroCostPreservesOldBehaviour) {
    Simulator sim;
    Network net(sim, 0.5);
    Sink a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    net.send("A", "B", 1, util::Bytes(1000, 0xcc));
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // instantaneous control plane
}

TEST(Bandwidth, NegativeRateRejected) {
    Simulator sim;
    EXPECT_THROW(Network(sim, 0.5, 0.0, -1e-6), std::invalid_argument);
}

TEST(TraceGantt, RebuildsTransfersAndCompute) {
    TraceRecorder trace;
    const NameId p1 = trace.intern("P1");
    const NameId p2 = trace.intern("P2");
    trace.record_traffic(0.0, TraceKind::kLoadTransferStart, p1, p2, 1.0, 0, 0);
    trace.record_traffic(0.5, TraceKind::kLoadTransferEnd, p1, p2, 1.0, 0, 0);
    trace.record(0.5, TraceKind::kComputeStart, "P2", "");
    trace.record(1.5, TraceKind::kComputeEnd, "P2", "");
    const auto bars = gantt_from_trace(trace);
    ASSERT_EQ(bars.size(), 2u);
    EXPECT_EQ(bars[0].lane, "BUS");
    EXPECT_DOUBLE_EQ(bars[0].start, 0.0);
    EXPECT_DOUBLE_EQ(bars[0].end, 0.5);
    EXPECT_EQ(bars[0].glyph, '-');
    EXPECT_EQ(bars[1].lane, "P2");
    EXPECT_DOUBLE_EQ(bars[1].end, 1.5);
    EXPECT_EQ(bars[1].glyph, '#');
}

TEST(TraceGantt, UnmatchedEventsIgnored) {
    TraceRecorder trace;
    trace.record(0.0, TraceKind::kComputeEnd, "P1", "");  // end without start
    trace.record_traffic(1.0, TraceKind::kLoadTransferEnd, trace.intern("P1"),
                         trace.intern("P2"), 1.0, 0, 0);
    EXPECT_TRUE(gantt_from_trace(trace).empty());
}

TEST(TraceGantt, ProtocolRunProducesRenderableTimeline) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5};
    config.block_count = 900;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;

    std::vector<util::GanttBar> bars;
    protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
        bars = gantt_from_trace(internals.trace());
    });
    // m-1 transfers on the BUS lane + m compute bars.
    std::size_t bus = 0, compute = 0;
    double last_compute_end = 0.0;
    for (const auto& bar : bars) {
        if (bar.lane == "BUS") {
            ++bus;
        } else {
            ++compute;
            last_compute_end = std::max(last_compute_end, bar.end);
        }
        EXPECT_LE(bar.start, bar.end);
    }
    EXPECT_EQ(bus, 2u);
    EXPECT_EQ(compute, 3u);
    // The timeline's last compute end is the simulated makespan.
    dlt::ProblemInstance instance{config.kind, config.z, config.true_w};
    EXPECT_NEAR(last_compute_end, dlt::optimal_makespan(instance),
                0.01 * dlt::optimal_makespan(instance));
    // And it renders.
    const std::string figure = util::render_gantt(bars, {});
    EXPECT_NE(figure.find("BUS"), std::string::npos);
    EXPECT_NE(figure.find("P1"), std::string::npos);
}

// A run records Theta(m^2) deliveries but only O(m) distinct strings: per
// processor its name, its compute note ("blocks=... rate=...") and its
// "ship:P<k>" span name, plus a fixed set of phase, span and endpoint names
// (about 20 at m = 64). A record that interned per-message text would pass
// 3m + 32 many times over.
TEST(TraceRecorder, StringTableStaysLinearInProcessors) {
    constexpr std::size_t m = 64;
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.002;
    for (std::size_t i = 0; i < m; ++i) config.true_w.push_back(1.0 + 0.01 * i);
    config.block_count = 4 * m;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;

    std::size_t texts = 0, delivered = 0;
    const auto outcome =
        protocol::run_protocol(config, [&](const protocol::RunInternals& internals) {
            texts = internals.trace().text_count();
            delivered = internals.trace().filter(TraceKind::kMessageDelivered).size();
        });
    EXPECT_FALSE(outcome.terminated_early);
    EXPECT_GE(delivered, m * (m - 1));
    EXPECT_GT(texts, m);  // every processor's name is in it
    EXPECT_LT(texts, 3 * m + 32);
}

// Messages and transfers have one record path, the typed one.
TEST(TraceRecorder, FreeTextRecordRejectsTypedKinds) {
    TraceRecorder trace;
    for (const TraceKind kind : {TraceKind::kMessageSent, TraceKind::kMessageDelivered,
                                 TraceKind::kLoadTransferStart, TraceKind::kLoadTransferEnd}) {
        EXPECT_THROW(trace.record(0.0, kind, "P1", "to=P2"), std::logic_error);
    }
    EXPECT_TRUE(trace.events().empty());
    trace.record(0.0, TraceKind::kVerdict, "referee", "fine P2");
    EXPECT_EQ(trace.detail(trace.events().at(0)), "fine P2");
    EXPECT_EQ(trace.intern("referee"), trace.events()[0].actor);  // stored once
}

TEST(Bandwidth, ProtocolHonestRunStillSettlesWithCharges) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpNFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5};
    config.block_count = 900;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    config.control_seconds_per_byte = 1e-5;
    const auto outcome = protocol::run_protocol(config);
    EXPECT_FALSE(outcome.terminated_early) << outcome.termination_reason;
    EXPECT_EQ(outcome.fined_count(), 0u);
    // The charged control plane can only delay completion.
    dlt::ProblemInstance instance{config.kind, config.z, config.true_w};
    EXPECT_GE(outcome.makespan, dlt::optimal_makespan(instance) - 1e-9);
}

}  // namespace
}  // namespace dlsbl::sim
