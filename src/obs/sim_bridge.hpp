// Bridges from the sim layer's bespoke accounting into the generic
// observability substrate.
//
// sim::NetworkMetrics keeps its narrow, allocation-free API (it sits on the
// network hot path); this re-hosts its totals and per-phase counters onto a
// MetricsRegistry after the fact, giving them Prometheus export, manifest
// snapshots and a uniform namespace next to the referee counters.
#pragma once

#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace dlsbl::obs {

// Metric names used by the export (tests assert against these).
inline constexpr const char* kControlMessagesMetric = "dlsbl_control_messages_total";
inline constexpr const char* kControlBytesMetric = "dlsbl_control_bytes_total";
inline constexpr const char* kLoadTransfersMetric = "dlsbl_load_transfers_total";
inline constexpr const char* kLoadUnitsMetric = "dlsbl_load_units_moved";

// Adds the network's counters to `registry`: per-phase control message and
// byte counters (label phase="...") plus load-transfer totals.
void export_network_metrics(const sim::NetworkMetrics& network,
                            MetricsRegistry& registry);

// SpanSink that mirrors span begin/end records into a sim::TraceRecorder,
// preserving the exact record shapes the catapult exporter expects:
// kSpanBegin carries actor+name, kSpanEnd carries empty strings (the begin
// record already names the span). The sim driver installs it so spans reach
// the trace and its catapult export.
class TraceSpanSink final : public SpanSink {
 public:
    explicit TraceSpanSink(sim::TraceRecorder& trace) : trace_(trace) {}

    void span_begin(double time, const std::string& actor,
                    const std::string& name, std::uint64_t span_id,
                    std::uint64_t parent_id) override {
        trace_.record(time, sim::TraceKind::kSpanBegin, actor, name, span_id,
                      parent_id);
    }

    void span_end(double time, std::uint64_t span_id,
                  std::uint64_t parent_id) override {
        trace_.record(time, sim::TraceKind::kSpanEnd, std::string(),
                      std::string(), span_id, parent_id);
    }

 private:
    sim::TraceRecorder& trace_;
};

}  // namespace dlsbl::obs
