#include "obs/event.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.hpp"
#include "util/bytes.hpp"

namespace dlsbl::obs {

const char* level_tag(LogLevel level) noexcept {
    switch (level) {
        case LogLevel::Error: return "error";
        case LogLevel::Warn: return "warn";
        case LogLevel::Info: return "info";
        case LogLevel::Debug: return "debug";
        default: return "off";
    }
}

Event::Event(LogLevel level, std::string component, std::string name)
    : level_(level), component_(std::move(component)), name_(std::move(name)) {}

Event& Event::str(std::string key, std::string value) {
    fields_.push_back(Field{std::move(key), std::move(value), /*is_literal=*/false});
    return *this;
}

Event& Event::num(std::string key, double value) {
    fields_.push_back(Field{std::move(key), json_number(value), /*is_literal=*/true});
    return *this;
}

Event& Event::uint(std::string key, std::uint64_t value) {
    fields_.push_back(Field{std::move(key), std::to_string(value), /*is_literal=*/true});
    return *this;
}

Event& Event::boolean(std::string key, bool value) {
    fields_.push_back(
        Field{std::move(key), value ? "true" : "false", /*is_literal=*/true});
    return *this;
}

Event& Event::time(double sim_time) {
    has_time_ = true;
    sim_time_ = sim_time;
    return *this;
}

Event& Event::span(const SpanContext& span) {
    span_ = span;
    return *this;
}

std::string Event::to_json() const {
    std::string out = "{\"v\":";
    util::append_decimal(out, kSchemaVersion);
    out.append(",\"level\":\"").append(level_tag(level_)).append("\",\"component\":");
    append_json_string(out, component_);
    out += ",\"event\":";
    append_json_string(out, name_);
    if (has_time_) {
        out += ",\"t\":";
        append_json_number(out, sim_time_);
    }
    if (span_.valid()) {
        out += ",\"trace\":";
        util::append_decimal(out, span_.trace_id);
        out += ",\"span\":";
        util::append_decimal(out, span_.span_id);
        if (span_.parent_id != 0) {
            out += ",\"parent\":";
            util::append_decimal(out, span_.parent_id);
        }
    }
    for (const auto& field : fields_) {
        out += ',';
        append_json_string(out, field.key);
        out += ':';
        if (field.is_literal) {
            out += field.value;
        } else {
            append_json_string(out, field.value);
        }
    }
    out += '}';
    return out;
}

void StderrSink::emit(const Event& event) {
    std::string body;
    // Legacy text logs arrive as a single "message" field; print them
    // exactly as util::Logger used to.
    if (event.name() == "log" && event.fields().size() == 1 &&
        event.fields()[0].key == "message") {
        body = event.fields()[0].value;
    } else {
        body = event.name();
        if (event.has_time()) body += " t=" + json_number(event.sim_time());
        if (event.has_span()) {
            body += " span=" + std::to_string(event.span_context().span_id);
            if (event.span_context().parent_id != 0) {
                body += " parent=" + std::to_string(event.span_context().parent_id);
            }
        }
        for (const auto& field : event.fields()) {
            body += ' ' + field.key + '=' + field.value;
        }
    }
    std::fprintf(stderr, "[%s] %s: %s\n", util::Logger::name(event.level()),
                 event.component().c_str(), body.c_str());
}

JsonlSink::JsonlSink(std::ostream& out) : out_(&out) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)) {
    out_ = owned_.get();
}

// RAII half of the durability story: normal destruction flushes whatever
// the atexit handler has not already pushed out (caller-owned streams are
// flushed too — JsonlSink never destroys a stream it does not own).
JsonlSink::~JsonlSink() {
    if (out_ != nullptr) out_->flush();
}

bool JsonlSink::ok() const noexcept { return out_ != nullptr && out_->good(); }

void JsonlSink::emit(const Event& event) { *out_ << event.to_json() << '\n'; }

void JsonlSink::flush() { out_->flush(); }

EventLog::EventLog() { sinks_.push_back(std::make_shared<StderrSink>()); }

EventLog& EventLog::instance() {
    static EventLog log;
    // Durability: a bench that exits through std::exit (or a harness that
    // kills it right after) must not leave a JsonlSink's last lines sitting
    // in a stream buffer. Registered *after* `log` is constructed, so the
    // handler runs before the log's own destruction on normal exit.
    static const bool flush_registered = [] {
        std::atexit([] { EventLog::instance().flush(); });
        return true;
    }();
    (void)flush_registered;
    return log;
}

namespace {
// Per-thread capture target (exec::RunExecutor installs one per run).
// Deliberately mutable: it IS the per-thread redirection state.
// DLSBL_LINT_ALLOW(mutable-global)
thread_local EventBuffer* t_event_buffer = nullptr;
}  // namespace

EventBuffer* EventLog::set_thread_buffer(EventBuffer* buffer) noexcept {
    EventBuffer* previous = t_event_buffer;
    t_event_buffer = buffer;
    return previous;
}

EventBuffer* EventLog::thread_buffer() noexcept { return t_event_buffer; }

void EventLog::emit(const Event& event) {
    if (!enabled(event.level())) return;
    if (t_event_buffer != nullptr) {
        t_event_buffer->append(event);
        return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& sink : sinks_) sink->emit(event);
}

void EventLog::replay(const EventBuffer& buffer) {
    if (buffer.empty()) return;
    // A nested capture scope (executor inside an executor task) forwards the
    // replayed events into the enclosing buffer instead of the sinks.
    if (t_event_buffer != nullptr) {
        for (const auto& event : buffer.events()) t_event_buffer->append(event);
        return;
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& event : buffer.events()) {
        for (const auto& sink : sinks_) sink->emit(event);
    }
}

void EventLog::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& sink : sinks_) sink->flush();
}

void EventLog::add_sink(std::shared_ptr<EventSink> sink) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sinks_.push_back(std::move(sink));
}

void EventLog::remove_sink(const std::shared_ptr<EventSink>& sink) {
    const std::lock_guard<std::mutex> lock(mutex_);
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink), sinks_.end());
}

void EventLog::reset() {
    const std::lock_guard<std::mutex> lock(mutex_);
    sinks_.clear();
    sinks_.push_back(std::make_shared<StderrSink>());
    level_.store(LogLevel::Warn, std::memory_order_relaxed);
}

namespace {

void logger_backend(LogLevel level, std::string_view component,
                    std::string_view message) {
    Event event(level, std::string(component), "log");
    event.str("message", std::string(message));
    EventLog::instance().emit(event);
}

}  // namespace

void install_logger_bridge() {
    util::Logger::instance().set_backend(&logger_backend);
    // The EventLog gate replaces the Logger's own; let everything through so
    // a message is filtered exactly once.
    util::Logger::instance().set_level(LogLevel::Debug);
}

void set_log_level(LogLevel level) {
    EventLog::instance().set_level(level);
    if (util::Logger::instance().backend() == nullptr) {
        util::Logger::instance().set_level(level);
    }
}

bool parse_log_level(std::string_view text, LogLevel& out) {
    if (text == "off") {
        out = LogLevel::Off;
    } else if (text == "error") {
        out = LogLevel::Error;
    } else if (text == "warn") {
        out = LogLevel::Warn;
    } else if (text == "info") {
        out = LogLevel::Info;
    } else if (text == "debug") {
        out = LogLevel::Debug;
    } else {
        return false;
    }
    return true;
}

}  // namespace dlsbl::obs
