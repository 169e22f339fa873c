#include "obs/catapult.hpp"

#include <cstdint>
#include <fstream>
#include <map>
#include <string_view>
#include <vector>

#include "obs/json.hpp"

namespace dlsbl::obs {

std::string catapult_from_trace(const sim::TraceRecorder& trace) {
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

    std::string events;
    bool first = true;
    auto push = [&](const std::string& body) {
        if (!first) events += ',';
        first = false;
        events += "\n{" + body + '}';
    };
    auto common = [&](const char* name, const char* cat, const char* ph,
                      std::uint32_t tid, double ts) {
        return "\"name\":" + json_escape(name) + ",\"cat\":\"" + cat +
               "\",\"ph\":\"" + ph + "\",\"pid\":0,\"tid\":" + std::to_string(tid) +
               ",\"ts\":" + json_number(ts * kMicros);
    };

    // Metadata: name the process and each track.
    push("\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"dlsbl\"}");
    for (std::uint32_t tid = 0; tid < track_names.size(); ++tid) {
        push("\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" +
             std::to_string(tid) +
             ",\"args\":{\"name\":" + json_escape(track_names[tid]) + '}');
    }

    // Interval events: the Gantt bars (compute spans per processor, load
    // transfers on the BUS lane), boundaries identical to gantt_from_trace.
    for (const auto& bar : bars) {
        const bool is_bus = bar.lane == sim::kBusLane;
        std::string body = common(is_bus ? "load-transfer" : "compute",
                                  is_bus ? "bus" : "compute", "X",
                                  track(bar.lane), bar.start);
        body += ",\"dur\":" + json_number((bar.end - bar.start) * kMicros);
        push(body);
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
    auto span_name = [&](const sim::TraceEvent& anchor, std::string unnamed) {
        const bool named = anchor.kind == sim::TraceKind::kSpanBegin && anchor.note != sim::kNoName;
        return named ? trace.text(anchor.note) : unnamed;
    };

    // Instant events: messages, verdicts, churn marks, phase changes.
    for (const auto& event : trace.events()) {
        switch (event.kind) {
            case sim::TraceKind::kMessageSent:
            case sim::TraceKind::kMessageDelivered:
            case sim::TraceKind::kVerdict:
            case sim::TraceKind::kChurn: {
                std::string body = common(sim::to_string(event.kind), "event", "i",
                                          track(event.actor), event.time);
                body += ",\"s\":\"t\",\"args\":{\"detail\":" +
                        json_escape(trace.detail(event)) + '}';
                push(body);
                break;
            }
            case sim::TraceKind::kPhaseChange: {
                // Global instants on the protocol track, named by the phase.
                std::string body =
                    common(trace.text(event.note).c_str(), "phase", "i",
                           kProtocol, event.time);
                body += ",\"s\":\"g\",\"args\":{}";
                push(body);
                break;
            }
            case sim::TraceKind::kSpanBegin:
            case sim::TraceKind::kSpanEnd: {
                // Async begin/end pair keyed by span id: the viewer nests
                // them by id, so run > phase > per-processor spans stack.
                const bool begin = event.kind == sim::TraceKind::kSpanBegin;
                const sim::TraceEvent& anchor = anchor_of(event.span_id);
                const std::string name =
                    span_name(anchor, "span-" + std::to_string(event.span_id));
                std::string body = common(name.c_str(), "span", begin ? "b" : "e",
                                          actor_track(anchor.actor), event.time);
                body += ",\"id\":" + std::to_string(event.span_id);
                if (begin) {
                    body += ",\"args\":{\"parent\":" + std::to_string(event.parent_id) +
                            '}';
                }
                push(body);
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
        const std::string flow_name = span_name(source, "causal");
        ++edge_id;
        std::string src = common(flow_name.c_str(), "flow", "s", src_tid, source.time);
        src += ",\"id\":" + std::to_string(edge_id);
        push(src);
        std::string dst =
            common(flow_name.c_str(), "flow", "f", dst_tid, event.time);
        dst += ",\"bp\":\"e\",\"id\":" + std::to_string(edge_id);
        push(dst);
    }

    return "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[" + events + "\n]}\n";
}

bool write_catapult_file(const std::string& path, const sim::TraceRecorder& trace) {
    std::ofstream out(path, std::ios::trunc);
    if (!out.good()) return false;
    out << catapult_from_trace(trace);
    return out.good();
}

}  // namespace dlsbl::obs
