#include "protocol/dispatch.hpp"

#include "util/logging.hpp"

namespace dlsbl::protocol {

void MessageDispatcher::on(MsgType type, Handler handler) {
    const std::uint32_t wire = to_wire(type);
    if (wire >= slots_.size()) slots_.resize(wire + 1);
    slots_[wire] = Slot{true, std::move(handler)};
}

void MessageDispatcher::ignore(MsgType type) { on(type, Handler{}); }

void MessageDispatcher::dispatch(const Endpoint& endpoint, const WireMessage& message,
                                 obs::MetricsRegistry& registry) const {
    if (message.type >= slots_.size() || !slots_[message.type].registered) {
        // Unknown wire type: identical policy on every endpoint — log, drop,
        // count. (All MsgType kinds are registered by both endpoints, so
        // this only fires for values outside the enum.)
        util::log_debug("protocol", endpoint.name() + ": dropping unknown message type " +
                                        std::to_string(message.type) + " from " +
                                        std::string(message.from));
        registry
            .counter(kUnknownMessagesMetric,
                     {{"endpoint", endpoint.name()},
                      {"type", std::to_string(message.type)}})
            .inc();
        return;
    }
    const Handler& handler = slots_[message.type].handler;
    if (handler) handler(message);
}

}  // namespace dlsbl::protocol
