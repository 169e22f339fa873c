// One-port bus network model (§2 of the paper).
//
// Two traffic classes:
//   * control messages — bids, accusations, payment vectors. Delivered after
//     a configurable constant latency (default 0: the paper's timing model
//     charges only load movement). Broadcast is atomic and reliable, per the
//     paper's assumption ("the network has a reliable, atomic mechanism for
//     broadcasting information").
//   * load transfers — occupy the shared bus exclusively (one-port model):
//     a transfer of α units takes α·z bus seconds and transfers queue FIFO.
//
// The network is protocol-agnostic: payloads are opaque bytes and message
// types are small integers owned by the protocol layer.
//
// Delivery order. Whenever several deliveries fall due at one time, they
// happen in kernel scheduling order; a broadcast is one kernel event that
// delivers to every process except the sender, in lexicographic name order
// ("P1", "P10", ..., "P2", ..., "referee", "user"). Anything a recipient
// schedules for the same time runs after the broadcast's last delivery.
// Every recipient of a broadcast sees the one shared payload buffer.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/kernel.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"
#include "util/bytes.hpp"

namespace dlsbl::sim {

// Dense process index: the order processes were attached in
// (Network::name_of maps it back to the name).
using ProcessIndex = std::uint32_t;

struct Envelope {
    ProcessIndex from = 0;
    ProcessIndex to = 0;
    std::uint32_t type = 0;    // protocol-defined discriminator
    util::SharedBytes payload;  // one buffer for every recipient of a broadcast
    double sent_at = 0.0;
    // Causal span of the send (0 = untracked). Receivers parent their own
    // spans/events on it, which is what links cross-processor causality in
    // the JSONL and Chrome-trace exports.
    std::uint64_t span_id = 0;
};

class Process {
 public:
    virtual ~Process() = default;
    // Called once after every process is attached, before any message flows.
    virtual void on_start() {}
    virtual void on_message(const Envelope& envelope) = 0;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
    explicit Process(std::string name) : name_(std::move(name)) {}

 private:
    std::string name_;
};

class Network {
 public:
    // control_seconds_per_byte: when > 0, control messages are charged for
    // bandwidth and occupy the shared bus like load transfers do (the
    // paper's complexity model counts their bytes; this knob makes those
    // bytes cost wall-clock time so the mechanism's Θ(m²) overhead becomes
    // measurable — bench E22). 0 keeps the paper's timing model, where only
    // load movement takes time.
    Network(Simulator& simulator, double unit_comm_time, double control_latency = 0.0,
            double control_seconds_per_byte = 0.0);

    // Processes are owned by the caller and must outlive the network. A
    // process's index is its position in attach order.
    void attach(Process& process);
    [[nodiscard]] const std::string& name_of(ProcessIndex index) const {
        return processes_.at(index)->name();
    }

    // Fires every process's on_start() at the current simulated time, in
    // name order.
    void start();

    // Senders and recipients are named; each send resolves the names once.
    // An unknown name throws std::logic_error.

    // Reliable unicast; counted in the communication-complexity metrics.
    // `span_id` (optional) stamps the send's causal span onto the trace
    // records and the delivered envelope.
    void send(const std::string& from, const std::string& to, std::uint32_t type,
              util::Bytes payload, std::uint64_t span_id = 0);

    // Atomic reliable broadcast: every process except the sender receives
    // the identical payload buffer. Counted once (one bus transmission) and
    // scheduled once (one kernel event for all recipients).
    void broadcast(const std::string& from, std::uint32_t type, util::Bytes payload,
                   std::uint64_t span_id = 0);

    // A load transfer of `units` load: waits for the bus, holds it for
    // units * z, then delivers the payload (the block batch) to `to`.
    void transfer_load(const std::string& from, const std::string& to, double units,
                       std::uint32_t type, util::Bytes payload,
                       std::uint64_t span_id = 0);

    // Simulated time at which the bus next becomes free.
    [[nodiscard]] double bus_free_at() const noexcept { return bus_busy_until_; }

    [[nodiscard]] Simulator& simulator() noexcept { return simulator_; }
    [[nodiscard]] NetworkMetrics& metrics() noexcept { return metrics_; }
    [[nodiscard]] TraceRecorder& trace() noexcept { return trace_; }
    [[nodiscard]] double unit_comm_time() const noexcept { return z_; }

    // Fault-injection hook consulted on every delivery attempt, once per
    // recipient (the network itself stays protocol-agnostic: the
    // interceptor owner interprets the availability plan). kDrop suppresses
    // delivery; kDelay reschedules it `delay` later with redelivery=true (a
    // redelivery is never re-delayed). Either outcome records a
    // TraceKind::kChurn event carrying `note`.
    enum class DeliveryAction { kDeliver, kDrop, kDelay };
    struct DeliveryRuling {
        DeliveryAction action = DeliveryAction::kDeliver;
        double delay = 0.0;
        std::string note;
    };
    using DeliveryInterceptor =
        std::function<DeliveryRuling(const Envelope&, double now, bool redelivery)>;
    void set_delivery_interceptor(DeliveryInterceptor interceptor) {
        interceptor_ = std::move(interceptor);
    }

 private:
    // Where `name` sits (or would sit) in name_order_.
    [[nodiscard]] std::vector<ProcessIndex>::const_iterator name_slot(
        const std::string& name) const;
    // The index of `name`; an unknown name throws std::logic_error(`what` + name).
    [[nodiscard]] ProcessIndex resolve(const std::string& name, const char* what) const;
    void deliver(const Envelope& envelope, bool redelivery = false);
    // Time at which a control message of `bytes` is delivered, holding the
    // bus for its transmission when the bandwidth model is on.
    double control_delivery_time(std::size_t bytes);

    Simulator& simulator_;
    double z_;
    double control_latency_;
    double control_seconds_per_byte_;
    double bus_busy_until_ = 0.0;
    std::vector<Process*> processes_;       // by ProcessIndex
    std::vector<ProcessIndex> name_order_;  // indices sorted by name
    std::vector<NameId> trace_names_;       // by ProcessIndex
    NetworkMetrics metrics_;
    TraceRecorder trace_;
    DeliveryInterceptor interceptor_;
};

}  // namespace dlsbl::sim
