#include "obs/catapult.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/profiler.hpp"
#include "util/bytes.hpp"

namespace dlsbl::obs {

std::string catapult_from_trace(const sim::TraceRecorder& trace) {
    OBS_SCOPE("catapult_export");
    constexpr double kMicros = 1e6;  // simulated seconds -> viewer microseconds
    // Track tids: "protocol" and "BUS" first, so the viewer shows them on
    // top, then one per trace name in the order it is first asked for.
    constexpr std::uint32_t kProtocol = 0, kBus = 1, kUnset = UINT32_MAX;
    std::vector<std::string_view> track_names{"protocol", "BUS"};
    std::vector<std::uint32_t> tids(trace.text_count(), kUnset);  // by NameId
    auto track = [&](sim::NameId name) {
        if (name == sim::kBusLane) return kBus;
        std::uint32_t& tid = tids[name];
        if (tid == kUnset) {
            const std::string& text = trace.text(name);
            tid = text == "protocol" ? kProtocol
                  : text == "BUS"    ? kBus
                                     : static_cast<std::uint32_t>(track_names.size());
            if (tid == track_names.size()) track_names.push_back(text);
        }
        return tid;
    };
    // Records without an actor (span ends) sit on the protocol track.
    auto actor_track = [&](sim::NameId actor) {
        return actor == sim::kNoName ? kProtocol : track(actor);
    };
    // Register every actor in first-appearance order (deterministic: the
    // trace itself is deterministic) so tids are stable across runs.
    for (const auto& event : trace.events()) {
        if (event.actor != sim::kNoName) track(event.actor);
    }
    const auto bars = sim::bars_from_trace(trace);
    for (const auto& bar : bars) track(bar.lane);

    // The whole document is appended to one string, event by event. Its
    // first event names the process; each later one opens with ",\n{".
    std::string out =
        "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{\"name\":\"process_name\",\"ph\":\"M\","
        "\"pid\":0,\"args\":{\"name\":\"dlsbl\"}}";
    // Opens an event with the fields every non-metadata event starts with.
    auto open_event = [&](std::string_view name, const char* cat, const char* ph,
                          std::uint32_t tid, double ts) {
        out += ",\n{\"name\":";
        append_json_string(out, name);
        out.append(",\"cat\":\"").append(cat).append("\",\"ph\":\"").append(ph);
        out += "\",\"pid\":0,\"tid\":";
        util::append_decimal(out, tid);
        out += ",\"ts\":";
        append_json_number(out, ts * kMicros);
    };

    // Metadata: name each track.
    for (std::uint32_t tid = 0; tid < track_names.size(); ++tid) {
        out += ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":";
        util::append_decimal(out, tid);
        out += ",\"args\":{\"name\":";
        append_json_string(out, track_names[tid]);
        out += "}}";
    }

    // Interval events: the Gantt bars (compute spans per processor, load
    // transfers on the BUS lane), boundaries identical to gantt_from_trace.
    for (const auto& bar : bars) {
        const bool is_bus = bar.lane == sim::kBusLane;
        open_event(is_bus ? "load-transfer" : "compute", is_bus ? "bus" : "compute", "X",
                   track(bar.lane), bar.start);
        out += ",\"dur\":";
        append_json_number(out, (bar.end - bar.start) * kMicros);
        out += '}';
    }

    // Causal spans: the first trace record carrying each span id anchors it
    // to a (track, timestamp); a kSpanBegin anchor also names the span. A
    // span without an anchor is unnamed and sits on the protocol track.
    std::map<std::uint64_t, const sim::TraceEvent*> anchors;
    for (const auto& event : trace.events()) {
        if (event.span_id != 0) anchors.try_emplace(event.span_id, &event);
    }
    const sim::TraceEvent unanchored;
    auto anchor_of = [&](std::uint64_t span_id) -> const sim::TraceEvent& {
        const auto it = anchors.find(span_id);
        return it != anchors.end() ? *it->second : unanchored;
    };
    auto named = [](const sim::TraceEvent& anchor) {
        return anchor.kind == sim::TraceKind::kSpanBegin && anchor.note != sim::kNoName;
    };
    std::string scratch;  // reused for rendered details and unnamed span names

    // Instant events: messages, verdicts, churn marks, phase changes.
    for (const auto& event : trace.events()) {
        switch (event.kind) {
            case sim::TraceKind::kMessageSent:
            case sim::TraceKind::kMessageDelivered:
            case sim::TraceKind::kVerdict:
            case sim::TraceKind::kChurn:
                open_event(sim::to_string(event.kind), "event", "i", track(event.actor),
                           event.time);
                out += ",\"s\":\"t\",\"args\":{\"detail\":";
                scratch.clear();
                trace.append_detail(scratch, event);
                append_json_string(out, scratch);
                out += "}}";
                break;
            case sim::TraceKind::kPhaseChange:
                // Global instants on the protocol track, named by the phase.
                open_event(trace.text(event.note), "phase", "i", kProtocol, event.time);
                out += ",\"s\":\"g\",\"args\":{}}";
                break;
            case sim::TraceKind::kSpanBegin:
            case sim::TraceKind::kSpanEnd: {
                // Async begin/end pair keyed by span id: the viewer nests
                // them by id, so run > phase > per-processor spans stack.
                const bool begin = event.kind == sim::TraceKind::kSpanBegin;
                const sim::TraceEvent& anchor = anchor_of(event.span_id);
                const bool is_named = named(anchor);
                if (!is_named) {
                    scratch = "span-";
                    util::append_decimal(scratch, event.span_id);
                }
                open_event(is_named ? trace.text(anchor.note) : scratch, "span",
                           begin ? "b" : "e", actor_track(anchor.actor), event.time);
                out += ",\"id\":";
                util::append_decimal(out, event.span_id);
                if (begin) {
                    out += ",\"args\":{\"parent\":";
                    util::append_decimal(out, event.parent_id);
                    out += '}';
                }
                out += '}';
                break;
            }
            default:
                break;  // transfer/compute boundaries already covered by bars
        }
    }

    // Flow arrows: wherever a record's span parents on (or equals) a span
    // anchored on a *different* track, draw source -> destination — bus
    // deliveries land on the receiver's track, compute chains on verify
    // spans, fines on disputes. One unique id per arrow.
    std::uint64_t edge_id = 0;
    for (const auto& event : trace.events()) {
        const std::uint64_t link =
            event.kind == sim::TraceKind::kMessageDelivered ||
                    event.kind == sim::TraceKind::kLoadTransferEnd
                ? event.span_id    // delivery record carries the sender's span
                : event.parent_id; // everything else links via its parent
        const sim::TraceEvent& source = anchor_of(link);
        if (link == 0 || &source == &unanchored) continue;
        const std::uint32_t src_tid = actor_track(source.actor);
        const std::uint32_t dst_tid = actor_track(event.actor);
        if (src_tid == dst_tid) continue;  // same-track: nesting shows it
        const std::string_view flow_name =
            named(source) ? std::string_view(trace.text(source.note)) : "causal";
        ++edge_id;
        open_event(flow_name, "flow", "s", src_tid, source.time);
        out += ",\"id\":";
        util::append_decimal(out, edge_id);
        out += '}';
        open_event(flow_name, "flow", "f", dst_tid, event.time);
        out += ",\"bp\":\"e\",\"id\":";
        util::append_decimal(out, edge_id);
        out += '}';
    }

    out += "\n]}\n";
    return out;
}

bool write_catapult_file(const std::string& path, const sim::TraceRecorder& trace) {
    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) return false;
    out << catapult_from_trace(trace);
    return out.good();
}

}  // namespace dlsbl::obs
