#include "sim/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace dlsbl::sim {

Network::Network(Simulator& simulator, double unit_comm_time, double control_latency,
                 double control_seconds_per_byte)
    : simulator_(simulator),
      z_(unit_comm_time),
      control_latency_(control_latency),
      control_seconds_per_byte_(control_seconds_per_byte) {
    if (unit_comm_time < 0.0 || control_latency < 0.0 || control_seconds_per_byte < 0.0) {
        throw std::invalid_argument("Network: negative timing parameter");
    }
}

double Network::control_delivery_time(std::size_t bytes) {
    const double occupancy = control_seconds_per_byte_ * static_cast<double>(bytes);
    if (occupancy <= 0.0) return simulator_.now() + control_latency_;
    // Bandwidth-charged: the message holds the one-port bus like a load
    // transfer does.
    const double start = std::max(simulator_.now(), bus_busy_until_);
    bus_busy_until_ = start + occupancy;
    return bus_busy_until_ + control_latency_;
}

std::vector<ProcessIndex>::const_iterator Network::name_slot(const std::string& name) const {
    return std::lower_bound(name_order_.begin(), name_order_.end(), name,
                            [this](ProcessIndex index, const std::string& key) {
                                return processes_[index]->name() < key;
                            });
}

void Network::attach(Process& process) {
    const auto at = name_slot(process.name());
    if (at != name_order_.end() && processes_[*at]->name() == process.name()) {
        throw std::invalid_argument("Network: duplicate process name: " + process.name());
    }
    name_order_.insert(at, static_cast<ProcessIndex>(processes_.size()));
    processes_.push_back(&process);
    trace_names_.push_back(trace_.intern(process.name()));
}

ProcessIndex Network::resolve(const std::string& name, const char* what) const {
    const auto at = name_slot(name);
    if (at == name_order_.end() || processes_[*at]->name() != name) {
        throw std::logic_error(std::string("Network: ") + what + name);
    }
    return *at;
}

void Network::start() {
    for (const ProcessIndex index : name_order_) {
        Process* p = processes_[index];
        simulator_.schedule_after(0.0, [p] { p->on_start(); });
    }
}

void Network::deliver(const Envelope& envelope, bool redelivery) {
    if (interceptor_) {
        const DeliveryRuling ruling = interceptor_(envelope, simulator_.now(), redelivery);
        if (ruling.action != DeliveryAction::kDeliver) {
            trace_.record(simulator_.now(), TraceKind::kChurn, name_of(envelope.to),
                          ruling.note, envelope.span_id);
            if (ruling.action == DeliveryAction::kDelay) {
                simulator_.schedule_after(ruling.delay,
                                          [this, e = envelope] { deliver(e, true); });
            }
            return;
        }
    }
    trace_.record_traffic(simulator_.now(), TraceKind::kMessageDelivered,
                          trace_names_[envelope.to], trace_names_[envelope.from], 0.0,
                          envelope.type, envelope.span_id);
    processes_[envelope.to]->on_message(envelope);
}

void Network::send(const std::string& from, const std::string& to, std::uint32_t type,
                   util::Bytes payload, std::uint64_t span_id) {
    const ProcessIndex recipient = resolve(to, "unknown recipient: ");
    const ProcessIndex sender = resolve(from, "unknown sender: ");
    metrics_.count_control(payload.size());
    trace_.record_traffic(simulator_.now(), TraceKind::kMessageSent, trace_names_[sender],
                          trace_names_[recipient], payload.size(), type, span_id);
    const double deliver_at = control_delivery_time(payload.size());
    Envelope envelope{sender, recipient, type, util::share(std::move(payload)),
                      simulator_.now(), span_id};
    simulator_.schedule_at(deliver_at, [this, e = std::move(envelope)] { deliver(e); });
}

void Network::broadcast(const std::string& from, std::uint32_t type, util::Bytes payload,
                        std::uint64_t span_id) {
    const ProcessIndex sender = resolve(from, "unknown sender: ");
    metrics_.count_control(payload.size());
    trace_.record_traffic(simulator_.now(), TraceKind::kMessageSent, trace_names_[sender],
                          kEveryone, payload.size(), type, span_id);
    // Atomic broadcast: one bus transmission, one kernel event, and one
    // payload buffer for every recipient.
    const double deliver_at = control_delivery_time(payload.size());
    Envelope envelope{sender, sender, type, util::share(std::move(payload)),
                      simulator_.now(), span_id};
    simulator_.schedule_at(deliver_at, [this, e = std::move(envelope)]() mutable {
        for (const ProcessIndex to : name_order_) {
            if (to == e.from) continue;
            e.to = to;
            deliver(e);
        }
    });
}

void Network::transfer_load(const std::string& from, const std::string& to, double units,
                            std::uint32_t type, util::Bytes payload,
                            std::uint64_t span_id) {
    const ProcessIndex recipient = resolve(to, "unknown recipient: ");
    const ProcessIndex sender = resolve(from, "unknown sender: ");
    if (units < 0.0) throw std::invalid_argument("Network: negative load transfer");
    const double start = std::max(simulator_.now(), bus_busy_until_);
    const double end = start + units * z_;
    bus_busy_until_ = end;
    metrics_.count_load_transfer(units);
    trace_.record_traffic(start, TraceKind::kLoadTransferStart, trace_names_[sender],
                          trace_names_[recipient], units, type, span_id);
    Envelope envelope{sender, recipient, type, util::share(std::move(payload)),
                      simulator_.now(), span_id};
    simulator_.schedule_at(end, [this, units, e = std::move(envelope)] {
        trace_.record_traffic(simulator_.now(), TraceKind::kLoadTransferEnd,
                              trace_names_[e.from], trace_names_[e.to], units, e.type,
                              e.span_id);
        deliver(e);
    });
}

}  // namespace dlsbl::sim
