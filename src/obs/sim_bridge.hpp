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
#include "sim/metrics.hpp"

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

}  // namespace dlsbl::obs
