// The sim adapter: hosts the sans-I/O cores on the discrete-event kernel.
//
// A thin shim — every Transport/Clock call delegates straight to
// sim::Network / sim::Simulator, and each Endpoint is wrapped in a
// sim::Process adapter, so the event ordering, timing formulas and
// trace/metrics records are exactly those of the pre-split runner (every
// artifact pinned by digest in tests/test_protocol_golden.cpp).
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/sim_bridge.hpp"
#include "protocol/detail/artifacts.hpp"
#include "protocol/drivers/drivers.hpp"
#include "sim/kernel.hpp"
#include "sim/network.hpp"

namespace dlsbl::protocol {
namespace {

// A sender as the cores see it, mapped once when its endpoint attaches.
struct Sender {
    std::string_view name;  // the adapter's name: stable while the driver lives
    std::optional<ProcId> id;
};

// Presents an Endpoint to the network as a sim::Process. An envelope becomes
// a WireMessage that shares its payload buffer and takes the sender's name
// and id from the driver's table, indexed by the envelope's sender.
class EndpointProcess final : public sim::Process {
 public:
    EndpointProcess(Endpoint& endpoint, const std::vector<Sender>& senders)
        : Process(endpoint.name()), endpoint_(endpoint), senders_(senders) {}

    void on_start() override { endpoint_.on_start(); }
    void on_message(const sim::Envelope& envelope) override {
        const Sender& sender = senders_[envelope.from];
        endpoint_.on_message(WireMessage{sender.name, sender.id, envelope.type,
                                         envelope.payload, envelope.sent_at,
                                         envelope.span_id});
    }

 private:
    Endpoint& endpoint_;
    const std::vector<Sender>& senders_;
};

// Also the span sink: spans and the note_* hooks write their records here.
class SimDriver final : public Driver, public Clock, public Transport, public obs::SpanSink {
 public:
    SimDriver(double z, double control_latency, double control_seconds_per_byte,
              ChurnPlan churn_plan)
        : network_(simulator_, z, control_latency, control_seconds_per_byte),
          churn_plan_(std::move(churn_plan)) {
        if (churn_plan_.enabled()) {
            network_.set_delivery_interceptor(
                [this](const sim::Envelope& envelope, double now, bool redelivery) {
                    const DeliveryRuling ruling = churn_ruling(
                        churn_plan_, network_.name_of(envelope.from),
                        network_.name_of(envelope.to), envelope.type, envelope.sent_at,
                        now, redelivery);
                    sim::Network::DeliveryRuling out;
                    out.delay = ruling.delay;
                    out.note = ruling.note;
                    switch (ruling.action) {
                        case ChurnAction::kDrop:
                            out.action = sim::Network::DeliveryAction::kDrop;
                            ++cut_;
                            break;
                        case ChurnAction::kDelay:
                            out.action = sim::Network::DeliveryAction::kDelay;
                            ++delayed_;
                            break;
                        case ChurnAction::kDeliver:
                            out.action = sim::Network::DeliveryAction::kDeliver;
                            break;
                    }
                    return out;
                });
        }
    }

    // --- Clock --------------------------------------------------------------
    [[nodiscard]] double now() const override { return simulator_.now(); }
    void call_at(double time, std::function<void()> fn) override {
        simulator_.schedule_at(time, std::move(fn));
    }
    void call_after(double delay, std::function<void()> fn) override {
        simulator_.schedule_after(delay, std::move(fn));
    }

    // --- Transport ----------------------------------------------------------
    void unicast(const std::string& from, const std::string& to, std::uint32_t type,
                 util::Bytes payload, std::uint64_t span_id) override {
        network_.send(from, to, type, std::move(payload), span_id);
    }
    void broadcast(const std::string& from, std::uint32_t type, util::Bytes payload,
                   std::uint64_t span_id) override {
        network_.broadcast(from, type, std::move(payload), span_id);
    }
    void transfer_load(const std::string& from, const std::string& to, double units,
                       std::uint32_t type, util::Bytes payload,
                       std::uint64_t span_id) override {
        network_.transfer_load(from, to, units, type, std::move(payload), span_id);
    }
    [[nodiscard]] double bus_free_at() const override { return network_.bus_free_at(); }

    void note_phase(double time, const std::string& phase) override {
        network_.metrics().set_phase(phase);
        network_.trace().record(time, sim::TraceKind::kPhaseChange, "protocol", phase);
    }
    void note_verdict(double time, const std::string& actor,
                      const std::string& detail) override {
        network_.trace().record(time, sim::TraceKind::kVerdict, actor, detail);
    }
    void note_compute_start(double time, const std::string& actor,
                            const std::string& detail, std::uint64_t span_id,
                            std::uint64_t parent_id) override {
        network_.trace().record(time, sim::TraceKind::kComputeStart, actor, detail,
                                span_id, parent_id);
    }
    void note_compute_end(double time, const std::string& actor, std::uint64_t span_id,
                          std::uint64_t parent_id) override {
        network_.trace().record(time, sim::TraceKind::kComputeEnd, actor, {}, span_id, parent_id);
    }
    void note_churn(double time, const std::string& actor,
                    const std::string& detail) override {
        network_.trace().record(time, sim::TraceKind::kChurn, actor, detail);
    }
    [[nodiscard]] obs::SpanSink* span_sink() override { return this; }

    // --- SpanSink -----------------------------------------------------------
    void span_begin(double time, const std::string& actor, const std::string& name,
                    std::uint64_t span_id, std::uint64_t parent_id) override {
        network_.trace().record(time, sim::TraceKind::kSpanBegin, actor, name, span_id, parent_id);
    }
    void span_end(double time, std::uint64_t span_id, std::uint64_t parent_id) override {
        network_.trace().record(time, sim::TraceKind::kSpanEnd, {}, {}, span_id, parent_id);
    }

    // --- Driver -------------------------------------------------------------
    [[nodiscard]] Clock& clock() override { return *this; }
    [[nodiscard]] Transport& transport() override { return *this; }

    void attach(Endpoint& endpoint) override {
        adapters_.push_back(std::make_unique<EndpointProcess>(endpoint, senders_));
        // The network indexes processes in attach order, as senders_ does.
        network_.attach(*adapters_.back());
        // Processor names parse to their id; the cores still bound it by the
        // run's processor count.
        const std::string& name = adapters_.back()->name();
        senders_.push_back({name, parse_proc_id(name, std::numeric_limits<ProcId>::max())});
    }

    void start() override { network_.start(); }

    void run() override {
        OBS_SCOPE("sim_event_loop");
        simulator_.run();
    }

    [[nodiscard]] TransportStats stats() override {
        TransportStats stats;
        stats.control_messages = network_.metrics().control_messages();
        stats.control_bytes = network_.metrics().control_bytes();
        for (const auto& [phase, counters] : network_.metrics().by_phase()) {
            stats.bytes_by_phase.emplace_back(phase, counters.bytes);
        }
        return stats;
    }

    void finalize_metrics(obs::MetricsRegistry& registry) override {
        obs::export_network_metrics(network_.metrics(), registry);
        if (churn_plan_.enabled()) {
            // Register both actions even at zero so churn runs always render
            // the counters.
            registry.counter("dlsbl_churn_messages_total", {{"action", "cut"}}).inc(cut_);
            registry.counter("dlsbl_churn_messages_total", {{"action", "delayed"}})
                .inc(delayed_);
        }
    }

    [[nodiscard]] RunArtifacts artifacts() override {
        return RunArtifacts{network_.trace(), network_.metrics()};
    }

 private:
    sim::Simulator simulator_;
    sim::Network network_;
    ChurnPlan churn_plan_;
    std::uint64_t cut_ = 0;
    std::uint64_t delayed_ = 0;
    std::vector<std::unique_ptr<EndpointProcess>> adapters_;
    std::vector<Sender> senders_;  // by sim::ProcessIndex (attach order)
};

}  // namespace

std::unique_ptr<Driver> make_sim_driver(double z, double control_latency,
                                        double control_seconds_per_byte,
                                        ChurnPlan churn_plan) {
    return std::make_unique<SimDriver>(z, control_latency, control_seconds_per_byte,
                                       std::move(churn_plan));
}

}  // namespace dlsbl::protocol
