#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <stdexcept>

#include "util/bytes.hpp"

namespace dlsbl::sim {

const char* to_string(TraceKind kind) noexcept {
    switch (kind) {
        case TraceKind::kMessageSent: return "msg-sent";
        case TraceKind::kMessageDelivered: return "msg-delivered";
        case TraceKind::kLoadTransferStart: return "load-start";
        case TraceKind::kLoadTransferEnd: return "load-end";
        case TraceKind::kComputeStart: return "compute-start";
        case TraceKind::kComputeEnd: return "compute-end";
        case TraceKind::kPhaseChange: return "phase";
        case TraceKind::kVerdict: return "verdict";
        case TraceKind::kSpanBegin: return "span-begin";
        case TraceKind::kSpanEnd: return "span-end";
        case TraceKind::kChurn: return "churn";
    }
    return "?";
}

NameId TraceRecorder::intern(std::string_view text) {
    const auto at = std::lower_bound(
        by_text_.begin(), by_text_.end(), text,
        [this](NameId id, std::string_view key) { return texts_[id] < key; });
    if (at != by_text_.end() && texts_[*at] == text) return *at;
    const auto id = static_cast<NameId>(texts_.size());
    texts_.emplace_back(text);
    by_text_.insert(at, id);
    return id;
}

void TraceRecorder::record(double time, TraceKind kind, std::string_view actor,
                           std::string_view note, std::uint64_t span_id,
                           std::uint64_t parent_id) {
    if (kind <= TraceKind::kLoadTransferEnd) {
        throw std::logic_error("TraceRecorder: messages and transfers are typed records");
    }
    events_.push_back({.time = time, .span_id = span_id, .parent_id = parent_id,
                       .actor = intern(actor), .note = intern(note), .kind = kind});
}

std::vector<TraceEvent> TraceRecorder::filter(TraceKind kind) const {
    std::vector<TraceEvent> out;
    std::copy_if(events_.begin(), events_.end(), std::back_inserter(out),
                 [kind](const TraceEvent& event) { return event.kind == kind; });
    return out;
}

void TraceRecorder::append_detail(std::string& out, const TraceEvent& event) const {
    switch (event.kind) {
        case TraceKind::kMessageSent:
            out.append("to=").append(text(event.peer)).append(" type=");
            util::append_decimal(out, event.wire_type);
            out += " bytes=";
            util::append_decimal(out, static_cast<std::uint64_t>(event.amount));
            return;
        case TraceKind::kMessageDelivered:
            out.append("from=").append(text(event.peer)).append(" type=");
            util::append_decimal(out, event.wire_type);
            return;
        case TraceKind::kLoadTransferStart:
        case TraceKind::kLoadTransferEnd:
            out.append("to=").append(text(event.peer)).append(" units=");
            out += std::to_string(event.amount);
            return;
        default:
            out += text(event.note);
            return;
    }
}

std::string TraceRecorder::detail(const TraceEvent& event) const {
    std::string out;
    append_detail(out, event);
    return out;
}

std::string TraceRecorder::render() const {
    std::string out;
    char buf[64];
    for (const auto& event : events_) {
        std::snprintf(buf, sizeof(buf), "%12.6f  %-14s ", event.time, to_string(event.kind));
        out.append(buf).append(text(event.actor)).append("  ");
        append_detail(out, event);
        out += '\n';
    }
    return out;
}

std::vector<TraceBar> bars_from_trace(const TraceRecorder& trace) {
    std::vector<TraceBar> bars;
    std::vector<double> open_transfers;
    std::vector<TraceBar> open_computes;
    // Horizon for unmatched starts: trace times are not monotone (a transfer
    // start is stamped with its future bus-grant time), so scan, not back().
    double horizon = 0.0;
    for (const auto& event : trace.events()) horizon = std::max(horizon, event.time);
    for (const auto& event : trace.events()) {
        switch (event.kind) {
            case TraceKind::kLoadTransferStart:
                open_transfers.push_back(event.time);
                break;
            case TraceKind::kLoadTransferEnd:
                if (!open_transfers.empty()) {
                    bars.push_back({kBusLane, open_transfers.front(), event.time});
                    open_transfers.erase(open_transfers.begin());
                }
                break;
            case TraceKind::kComputeStart:
                open_computes.push_back({event.actor, event.time});
                break;
            case TraceKind::kComputeEnd: {
                const auto open = std::find_if(
                    open_computes.begin(), open_computes.end(),
                    [&event](const TraceBar& bar) { return bar.lane == event.actor; });
                if (open != open_computes.end()) {
                    bars.push_back({event.actor, open->start, event.time});
                    open_computes.erase(open);
                }
                break;
            }
            default:
                break;
        }
    }
    for (const double start : open_transfers) {
        bars.push_back({kBusLane, start, std::max(start, horizon)});
    }
    for (const TraceBar& open : open_computes) {
        bars.push_back({open.lane, open.start, std::max(open.start, horizon)});
    }
    return bars;
}

std::vector<util::GanttBar> gantt_from_trace(const TraceRecorder& trace) {
    std::vector<util::GanttBar> gantt;
    for (const TraceBar& bar : bars_from_trace(trace)) {
        const bool bus = bar.lane == kBusLane;
        gantt.push_back(util::GanttBar{bus ? "BUS" : trace.text(bar.lane), bar.start,
                                       bar.end, bus ? '-' : '#'});
    }
    return gantt;
}

}  // namespace dlsbl::sim
