#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dlsbl::sim {
namespace {

class Recorder final : public Process {
 public:
    explicit Recorder(std::string name) : Process(std::move(name)) {}

    void on_start() override { started = true; }
    void on_message(const Envelope& envelope) override { inbox.push_back(envelope); }

    bool started = false;
    std::vector<Envelope> inbox;
};

struct Fixture {
    Simulator sim;
    Network net{sim, 0.5};  // z = 0.5
    Recorder a{"A"}, b{"B"}, c{"C"};

    Fixture() {
        net.attach(a);
        net.attach(b);
        net.attach(c);
    }
};

TEST(Network, StartInvokesAllProcesses) {
    Fixture f;
    f.net.start();
    f.sim.run();
    EXPECT_TRUE(f.a.started);
    EXPECT_TRUE(f.b.started);
    EXPECT_TRUE(f.c.started);
}

TEST(Network, UnicastDeliversToRecipientOnly) {
    Fixture f;
    f.net.send("A", "B", 7, util::to_bytes("hello"));
    f.sim.run();
    ASSERT_EQ(f.b.inbox.size(), 1u);
    EXPECT_EQ(f.net.name_of(f.b.inbox[0].from), "A");
    EXPECT_EQ(f.net.name_of(f.b.inbox[0].to), "B");
    EXPECT_EQ(f.b.inbox[0].type, 7u);
    EXPECT_EQ(*f.b.inbox[0].payload, util::to_bytes("hello"));
    EXPECT_TRUE(f.a.inbox.empty());
    EXPECT_TRUE(f.c.inbox.empty());
}

TEST(Network, BroadcastReachesAllButSender) {
    Fixture f;
    f.net.broadcast("A", 9, util::to_bytes("bid"));
    f.sim.run();
    EXPECT_TRUE(f.a.inbox.empty());
    ASSERT_EQ(f.b.inbox.size(), 1u);
    ASSERT_EQ(f.c.inbox.size(), 1u);
    EXPECT_EQ(*f.b.inbox[0].payload, util::to_bytes("bid"));
    EXPECT_EQ(*f.b.inbox[0].payload, *f.c.inbox[0].payload);  // atomic: same bytes
}

TEST(Network, BroadcastIsOneEventWithOneSharedPayload) {
    Fixture f;
    f.net.broadcast("A", 9, util::to_bytes("bid"));
    EXPECT_EQ(f.sim.pending(), 1u);
    f.sim.run();
    EXPECT_EQ(f.sim.events_fired(), 1u);
    ASSERT_EQ(f.b.inbox.size(), 1u);
    ASSERT_EQ(f.c.inbox.size(), 1u);
    // Both recipients hold the one buffer the network allocated.
    EXPECT_EQ(f.b.inbox[0].payload.get(), f.c.inbox[0].payload.get());
    EXPECT_EQ(f.b.inbox[0].payload.use_count(), 2);
    EXPECT_EQ(f.net.name_of(f.b.inbox[0].to), "B");
    EXPECT_EQ(f.net.name_of(f.c.inbox[0].to), "C");
    // One delivered record per recipient all the same.
    EXPECT_EQ(f.net.trace().filter(TraceKind::kMessageDelivered).size(), 2u);
}

TEST(Network, BroadcastCountedOnce) {
    Fixture f;
    f.net.broadcast("A", 9, util::to_bytes("xyz"));
    f.sim.run();
    EXPECT_EQ(f.net.metrics().control_messages(), 1u);
    EXPECT_EQ(f.net.metrics().control_bytes(), 3u);
}

TEST(Network, UnknownRecipientThrows) {
    Fixture f;
    EXPECT_THROW(f.net.send("A", "nobody", 1, {}), std::logic_error);
    EXPECT_THROW(f.net.transfer_load("A", "nobody", 1.0, 1, {}), std::logic_error);
}

TEST(Network, DuplicateAttachThrows) {
    Fixture f;
    Recorder dup{"A"};
    EXPECT_THROW(f.net.attach(dup), std::invalid_argument);
}

TEST(Network, LoadTransferTakesUnitsTimesZ) {
    Fixture f;
    f.net.transfer_load("A", "B", 0.4, 2, util::to_bytes("blocks"));
    f.sim.run();
    ASSERT_EQ(f.b.inbox.size(), 1u);
    EXPECT_DOUBLE_EQ(f.sim.now(), 0.4 * 0.5);
}

TEST(Network, OnePortSerializesTransfers) {
    // Two transfers queued at t=0 must occupy the bus back to back.
    Fixture f;
    std::vector<double> arrivals;
    f.net.transfer_load("A", "B", 0.4, 2, {});
    f.net.transfer_load("A", "C", 0.6, 2, {});
    EXPECT_DOUBLE_EQ(f.net.bus_free_at(), (0.4 + 0.6) * 0.5);
    f.sim.run();
    EXPECT_DOUBLE_EQ(f.sim.now(), 0.5);
}

TEST(Network, LoadTransfersExcludedFromControlMetrics) {
    Fixture f;
    f.net.transfer_load("A", "B", 0.4, 2, util::to_bytes("payload"));
    f.sim.run();
    EXPECT_EQ(f.net.metrics().control_messages(), 0u);
    EXPECT_EQ(f.net.metrics().load_transfers(), 1u);
    EXPECT_DOUBLE_EQ(f.net.metrics().load_units_moved(), 0.4);
}

TEST(Network, ControlLatencyDelaysDelivery) {
    Simulator sim;
    Network net(sim, 0.5, 0.25);
    Recorder a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    net.send("A", "B", 1, {});
    sim.run();
    EXPECT_DOUBLE_EQ(sim.now(), 0.25);
}

TEST(Network, PerPhaseAttribution) {
    Fixture f;
    f.net.metrics().set_phase("Bidding");
    f.net.broadcast("A", 1, util::to_bytes("ab"));
    f.net.metrics().set_phase("ComputingPayments");
    f.net.send("A", "B", 2, util::to_bytes("abcd"));
    f.sim.run();
    const auto& phases = f.net.metrics().by_phase();
    EXPECT_EQ(phases.at("Bidding").bytes, 2u);
    EXPECT_EQ(phases.at("ComputingPayments").bytes, 4u);
}

TEST(Network, TraceRecordsSendAndDeliver) {
    Fixture f;
    f.net.send("A", "B", 1, {});
    f.sim.run();
    const TraceRecorder& trace = f.net.trace();
    const auto sent = trace.filter(TraceKind::kMessageSent);
    const auto delivered = trace.filter(TraceKind::kMessageDelivered);
    ASSERT_EQ(sent.size(), 1u);
    ASSERT_EQ(delivered.size(), 1u);
    EXPECT_EQ(trace.events().size(), 2u);
    EXPECT_EQ(trace.text(sent[0].actor), "A");
    EXPECT_EQ(trace.text(sent[0].peer), "B");
    EXPECT_EQ(trace.text(delivered[0].actor), "B");
    EXPECT_EQ(trace.text(delivered[0].peer), "A");
}

// Every record the network writes, as render() prints it: unicast and
// broadcast sends, their deliveries, a load transfer's two ends, and the
// churn marks of an interceptor drop and delay. A broken field shows here by
// name, where the golden digests only show a changed hash.
TEST(Network, TraceRendersEveryNetworkRecord) {
    Fixture f;
    f.net.send("A", "B", 7, util::to_bytes("hello"));
    f.net.broadcast("C", 9, util::to_bytes("bid"));
    f.net.transfer_load("A", "C", 0.25, 2, util::to_bytes("blocks"));
    f.sim.run();
    f.net.set_delivery_interceptor([&f](const Envelope& envelope, double, bool redelivery) {
        Network::DeliveryRuling ruling;
        const std::string& to = f.net.name_of(envelope.to);
        if (to == "B") {
            ruling.action = Network::DeliveryAction::kDrop;
            ruling.note = "cut A->B";
        } else if (to == "C" && !redelivery) {
            ruling.action = Network::DeliveryAction::kDelay;
            ruling.delay = 1.0;
            ruling.note = "late A->C by 1";
        }
        return ruling;
    });
    f.net.broadcast("A", 4, util::to_bytes("ok"));
    f.sim.run();
    EXPECT_EQ(f.net.trace().render(),
              "    0.000000  msg-sent       A  to=B type=7 bytes=5\n"
              "    0.000000  msg-sent       C  to=* type=9 bytes=3\n"
              "    0.000000  load-start     A  to=C units=0.250000\n"
              "    0.000000  msg-delivered  B  from=A type=7\n"
              "    0.000000  msg-delivered  A  from=C type=9\n"
              "    0.000000  msg-delivered  B  from=C type=9\n"
              "    0.125000  load-end       A  to=C units=0.250000\n"
              "    0.125000  msg-delivered  C  from=A type=2\n"
              "    0.125000  msg-sent       A  to=* type=4 bytes=2\n"
              "    0.125000  churn          B  cut A->B\n"
              "    0.125000  churn          C  late A->C by 1\n"
              "    1.125000  msg-delivered  C  from=A type=4\n");
}

TEST(Network, NegativeParametersRejected) {
    Simulator sim;
    EXPECT_THROW(Network(sim, -1.0), std::invalid_argument);
    EXPECT_THROW(Network(sim, 1.0, -0.1), std::invalid_argument);
    Network net(sim, 1.0);
    Recorder a{"A"}, b{"B"};
    net.attach(a);
    net.attach(b);
    EXPECT_THROW(net.transfer_load("A", "B", -0.5, 1, {}), std::invalid_argument);
}

// ---- broadcast delivery-order contract ------------------------------------

// Appends (own name, delivery time) to a log shared by every process, so a
// test reads the order in which one broadcast reached its recipients.
class Logged final : public Process {
 public:
    Logged(std::string name, Simulator& sim,
           std::vector<std::pair<std::string, double>>& log)
        : Process(std::move(name)), sim_(sim), log_(log) {}

    void on_message(const Envelope&) override {
        log_.emplace_back(name(), sim_.now());
        if (on_receive) on_receive();
    }

    std::function<void()> on_receive;

 private:
    Simulator& sim_;
    std::vector<std::pair<std::string, double>>& log_;
};

// Twelve processors plus the referee and the user: enough names that "P10"
// sorts before "P2", so name order and attach order differ.
struct Bus {
    Simulator sim;
    Network net{sim, 0.5};
    std::vector<std::pair<std::string, double>> log;
    std::vector<std::unique_ptr<Logged>> procs;

    Bus() {
        add("referee");
        for (int k = 1; k <= 12; ++k) add("P" + std::to_string(k));
        add("user");
    }
    Logged& add(const std::string& name) {
        procs.push_back(std::make_unique<Logged>(name, sim, log));
        net.attach(*procs.back());
        return *procs.back();
    }
    Logged& proc(const std::string& name) {
        for (auto& p : procs) {
            if (p->name() == name) return *p;
        }
        throw std::out_of_range(name);
    }
    // Every attached name except `sender`, in lexicographic order.
    std::vector<std::string> others_in_name_order(const std::string& sender) const {
        std::vector<std::string> names;
        for (const auto& p : procs) {
            if (p->name() != sender) names.push_back(p->name());
        }
        std::sort(names.begin(), names.end());
        return names;
    }
    std::vector<std::string> logged_names() const {
        std::vector<std::string> names;
        for (const auto& [name, time] : log) names.push_back(name);
        return names;
    }
};

TEST(NetworkOrder, BroadcastReachesRecipientsInNameOrder) {
    Bus bus;
    bus.net.broadcast("P3", 1, util::to_bytes("bid"));
    bus.sim.run();
    const auto expected = bus.others_in_name_order("P3");
    ASSERT_EQ(expected.size(), 13u);
    EXPECT_EQ(expected.front(), "P1");
    EXPECT_EQ(expected[1], "P10");  // lexicographic, not id order
    EXPECT_EQ(expected[4], "P2");
    EXPECT_EQ(expected[11], "referee");
    EXPECT_EQ(expected.back(), "user");
    EXPECT_EQ(bus.logged_names(), expected);
    for (const auto& [name, time] : bus.log) EXPECT_DOUBLE_EQ(time, 0.0) << name;
}

TEST(NetworkOrder, SameTimeWorkOfFirstRecipientFollowsTheLastDelivery) {
    Bus bus;
    // The first recipient, at the broadcast's own delivery time, schedules
    // an event and sends a zero-latency unicast: both must land after every
    // other recipient of the broadcast has had its delivery.
    bus.proc("P1").on_receive = [&bus] {
        bus.sim.schedule_after(0.0, [&bus] { bus.log.emplace_back("tick", bus.sim.now()); });
        bus.net.send("P1", "P2", 2, util::to_bytes("reply"));
    };
    bus.net.broadcast("P3", 1, util::to_bytes("bid"));
    bus.sim.run();
    auto expected = bus.others_in_name_order("P3");
    expected.push_back("tick");
    expected.push_back("P2");  // the unicast
    EXPECT_EQ(bus.logged_names(), expected);
}

TEST(NetworkOrder, InterceptorRulesEachRecipientOnItsOwn) {
    Bus bus;
    bus.net.set_delivery_interceptor(
        [&bus](const Envelope& envelope, double, bool redelivery) {
            Network::DeliveryRuling ruling;
            const std::string& to = bus.net.name_of(envelope.to);
            if (to == "P2") {
                ruling.action = Network::DeliveryAction::kDrop;
                ruling.note = "cut";
            } else if (to == "P11" && !redelivery) {
                ruling.action = Network::DeliveryAction::kDelay;
                ruling.delay = 1.0;
                ruling.note = "late";
            }
            return ruling;
        });
    bus.net.broadcast("P3", 1, util::to_bytes("bid"));
    bus.sim.run();
    std::vector<std::pair<std::string, double>> expected;
    for (const auto& name : bus.others_in_name_order("P3")) {
        if (name == "P2" || name == "P11") continue;
        expected.emplace_back(name, 0.0);
    }
    expected.emplace_back("P11", 1.0);
    EXPECT_EQ(bus.log, expected);
    EXPECT_EQ(bus.net.trace().filter(TraceKind::kChurn).size(), 2u);
    EXPECT_EQ(bus.net.trace().filter(TraceKind::kMessageDelivered).size(), 12u);
}

}  // namespace
}  // namespace dlsbl::sim
