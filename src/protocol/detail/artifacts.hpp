// Definition of protocol::RunArtifacts (forward-declared in the sans-I/O
// endpoint.hpp): the post-run artifact handles a Driver exposes. Lives in
// detail/ because it names sim:: types: the trace recorder and the network
// metrics that feed the catapult/gantt and Prometheus exports.
#pragma once

#include "protocol/endpoint.hpp"
#include "sim/metrics.hpp"
#include "sim/trace.hpp"

namespace dlsbl::protocol {

struct RunArtifacts {
    sim::TraceRecorder& trace;
    sim::NetworkMetrics& metrics;
};

}  // namespace dlsbl::protocol
