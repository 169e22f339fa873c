// Causal spans: a per-run tree of named intervals linking everything that
// happens inside one protocol execution.
//
//   * trace_id — one per run, derived from the run's seed, so the id is
//     deterministic and two runs' spans never collide in a shared JSONL log;
//   * span_id  — allocated sequentially in protocol order (the driver's
//     deterministic event ordering makes that order reproducible), so
//     identical runs produce identical span graphs byte-for-byte;
//   * parent_id — the causal parent: run -> phase -> per-processor
//     message/verify/compute/fine spans. Message sends carry their span id on
//     the wire, so a *receiver's* spans parent on the *sender's* — that
//     cross-processor edge is what the catapult exporter renders as flow
//     arrows.
//
// SpanBook mirrors every open/close into two export paths:
//   * the obs EventLog (events "span_begin"/"span_end", Debug level) —
//     reaches JSONL sinks, so `--jsonl-out` + `--log-level debug` captures
//     the full span graph;
//   * an optional SpanSink — the transport plugs in its own mirror (the sim
//     driver forwards into a sim::TraceRecorder via obs::TraceSpanSink),
//     which reaches the Chrome-trace exporter.
//
// Span ids are allocated even when the Debug gate is closed, so turning
// logging on or off never changes the ids (and therefore never changes any
// other artifact).
#pragma once

#include <cstdint>
#include <string>

namespace dlsbl::obs {

struct SpanContext {
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_id = 0;  // 0 = root

    [[nodiscard]] bool valid() const noexcept { return span_id != 0; }
};

// Receives span open/close mirrors from a SpanBook. Implementations decide
// where they land (trace recorder, external collector, nothing).
class SpanSink {
 public:
    virtual ~SpanSink() = default;
    virtual void span_begin(double time, const std::string& actor,
                            const std::string& name, std::uint64_t span_id,
                            std::uint64_t parent_id) = 0;
    virtual void span_end(double time, std::uint64_t span_id,
                          std::uint64_t parent_id) = 0;
};

class SpanBook {
 public:
    // `sink` (optional) receives span begin/end mirror records; it must
    // outlive the book.
    explicit SpanBook(std::uint64_t trace_id, SpanSink* sink = nullptr)
        : trace_id_(trace_id), sink_(sink) {}

    [[nodiscard]] std::uint64_t trace_id() const noexcept { return trace_id_; }
    // Number of spans opened so far (tests assert determinism with this).
    [[nodiscard]] std::uint64_t opened() const noexcept { return next_id_; }

    // Opens a span at simulated time `sim_time`, attributed to `actor`
    // (process name; used as the catapult track). parent_id 0 = root span.
    SpanContext open(const std::string& name, const std::string& actor,
                     double sim_time, std::uint64_t parent_id = 0);

    void close(const SpanContext& span, double sim_time);

    // open+close at one instant — message sends, verdicts, fines.
    SpanContext instant(const std::string& name, const std::string& actor,
                        double sim_time, std::uint64_t parent_id = 0);

 private:
    std::uint64_t trace_id_;
    std::uint64_t next_id_ = 0;
    SpanSink* sink_;
};

}  // namespace dlsbl::obs
