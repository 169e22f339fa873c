// Chrome trace-event ("catapult") exporter.
//
// Converts a sim::TraceRecorder into a JSON file loadable by
// chrome://tracing or https://ui.perfetto.dev: one named track per actor
// (processors, referee, user) plus a "BUS" track carrying the load
// transfers, and a "protocol" track for phase changes.
//
//   * compute and load-transfer intervals become complete ("X") events —
//     their boundaries are taken from sim::bars_from_trace, so the visual
//     timeline matches the ASCII Gantt charts exactly;
//   * messages, verdicts and churn marks become instant ("i") events,
//     their detail rendered by sim::TraceRecorder::detail();
//   * phase changes become global instants on the protocol track.
//
// Timestamps are the simulated times scaled to microseconds (the trace
// viewer's native unit), under one process named "dlsbl". Output is a pure
// function of the trace, so identical-seed runs export byte-identical files.
#pragma once

#include <string>

#include "sim/trace.hpp"

namespace dlsbl::obs {

std::string catapult_from_trace(const sim::TraceRecorder& trace);

// Writes catapult_from_trace() to `path`; false if the file can't be opened.
bool write_catapult_file(const std::string& path, const sim::TraceRecorder& trace);

}  // namespace dlsbl::obs
