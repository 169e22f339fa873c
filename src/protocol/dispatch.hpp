// Shared message dispatch for the protocol endpoints.
//
// NodeCore and RefereeCore used to carry hand-written switches over MsgType
// with diverging default branches; this table gives both endpoints one
// registration surface and — crucially — one identical unknown-message
// policy: log at debug, drop the message, bump a labelled counter. Known
// kinds an endpoint deliberately does not react to are registered with
// ignore(), so only wire type values outside the MsgType enum ever hit the
// unknown path (which therefore never fires in conforming runs and cannot
// perturb artifact byte-identity).
#pragma once

#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "protocol/endpoint.hpp"
#include "protocol/messages.hpp"

namespace dlsbl::protocol {

// Metric counting dropped unknown-kind messages, labelled by endpoint name
// and wire type value.
inline constexpr const char* kUnknownMessagesMetric =
    "dlsbl_protocol_unknown_messages_total";

class MessageDispatcher {
 public:
    using Handler = std::function<void(const WireMessage&)>;

    // Registers `handler` for `type`; last registration wins.
    void on(MsgType type, Handler handler);
    // Marks `type` as known-but-ignored (explicit no-op).
    void ignore(MsgType type);

    // Routes `message` to the registered handler: one bounds check and one
    // index, no lookup. Unregistered wire types (values outside MsgType
    // included) share the one policy both endpoints use: debug log + drop +
    // counter on `registry`.
    void dispatch(const Endpoint& endpoint, const WireMessage& message,
                  obs::MetricsRegistry& registry) const;

 private:
    struct Slot {
        bool registered = false;
        Handler handler;  // empty for ignore()
    };
    std::vector<Slot> slots_;  // indexed by wire type value
};

}  // namespace dlsbl::protocol
