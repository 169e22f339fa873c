// Event trace: an append-only record of everything observable in a run.
//
// Used by tests to assert protocol choreography (who messaged whom, when
// computation started/ended) and by the figure benches to rebuild Gantt
// timelines from the *simulated* execution rather than from the analytic
// model — agreement between the two is itself a test.
//
// A run records Θ(m²) deliveries, so a TraceEvent is a POD that owns no
// string. Names and free text (process, span and phase names; verdict, churn
// and compute notes) live once each in the recorder's string table, keyed by
// NameId; sim::Network interns each process name at attach. Text is rendered
// only on demand, by detail() — render(), the catapult exporter and the
// forensics replay all go through it.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/chart.hpp"

namespace dlsbl::sim {

// The four traffic kinds come first: TraceRecorder::record relies on it.
enum class TraceKind : std::uint8_t {
    kMessageSent,
    kMessageDelivered,
    kLoadTransferStart,
    kLoadTransferEnd,
    kComputeStart,
    kComputeEnd,
    kPhaseChange,
    kVerdict,      // referee decisions: fines, rewards, terminations
    kSpanBegin,    // causal span opened (note = span name)
    kSpanEnd,      // causal span closed
    kChurn,        // fault injection: crash/restart marks, cut/delayed frames
};

const char* to_string(TraceKind kind) noexcept;

using NameId = std::uint32_t;           // index into a TraceRecorder's string table
inline constexpr NameId kNoName = 0;    // ""
inline constexpr NameId kEveryone = 1;  // "*", the peer of a broadcast

struct TraceEvent {
    double time = 0.0;
    double amount = 0.0;  // bytes of a send, units of a load transfer
    // The event's span and its causal parent (0 = none): opaque here, given
    // meaning by the obs layer (SpanBook, catapult exporter).
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;
    NameId actor = kNoName;
    NameId peer = kNoName;  // recipient of a send or transfer, sender of a delivery
    std::uint32_t wire_type = 0;
    NameId note = kNoName;  // the free text of every kind but traffic
    TraceKind kind = TraceKind::kPhaseChange;
};
static_assert(sizeof(TraceEvent) <= 64);

class TraceRecorder {
 public:
    // The id of `text`, added to the string table on first use.
    NameId intern(std::string_view text);
    [[nodiscard]] const std::string& text(NameId id) const { return texts_.at(id); }
    [[nodiscard]] std::size_t text_count() const noexcept { return texts_.size(); }

    // The one record path for messages and load transfers.
    void record_traffic(double time, TraceKind kind, NameId actor, NameId peer,
                        double amount, std::uint32_t wire_type, std::uint64_t span_id) {
        events_.push_back({.time = time, .amount = amount, .span_id = span_id, .actor = actor,
                           .peer = peer, .wire_type = wire_type, .kind = kind});
    }
    // Every other kind carries free text. A traffic kind throws std::logic_error.
    void record(double time, TraceKind kind, std::string_view actor, std::string_view note,
                std::uint64_t span_id = 0, std::uint64_t parent_id = 0);

    [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept { return events_; }
    [[nodiscard]] std::vector<TraceEvent> filter(TraceKind kind) const;

    // The text render() prints after the actor: "to=B type=7 bytes=5" (to=*
    // for a broadcast), "from=A type=7", "to=C units=0.250000", or the note.
    // append_detail() writes it to the end of `out`; every renderer uses it.
    void append_detail(std::string& out, const TraceEvent& event) const;
    [[nodiscard]] std::string detail(const TraceEvent& event) const;
    // Human-readable dump (one line per event).
    [[nodiscard]] std::string render() const;

 private:
    std::vector<TraceEvent> events_;
    std::vector<std::string> texts_{"", "*"};          // the string table, by NameId
    std::vector<NameId> by_text_{kNoName, kEveryone};  // ids sorted by text
};

// Rebuilds the simulated timeline from a recorded trace: load transfers on
// the bus lane (matched FIFO: the bus is one-port) and computes on their
// actor's lane (matched per actor); an activity that never ended runs to the
// latest time in the trace. gantt_from_trace names the lanes ("BUS" drawn
// '-', actors '#') so callers can draw the *simulated* execution next to the
// analytic diagram.
inline constexpr NameId kBusLane = UINT32_MAX;
struct TraceBar {
    NameId lane = kBusLane;
    double start = 0.0;
    double end = 0.0;
};
std::vector<TraceBar> bars_from_trace(const TraceRecorder& trace);
std::vector<util::GanttBar> gantt_from_trace(const TraceRecorder& trace);

}  // namespace dlsbl::sim
