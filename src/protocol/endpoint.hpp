// Sans-I/O protocol core: the interfaces that decouple the DLS-BL-NCP state
// machines (NodeCore, RefereeCore) from any particular transport or clock.
//
// The paper's mechanism (§4–§5) is defined purely in terms of message
// exchanges over a shared bus and a logical time axis; nothing in it needs a
// discrete-event simulator. The cores therefore consume (signed message,
// logical deadline) inputs and emit (outbound messages, timer requests,
// outcome deltas) exclusively through the two small interfaces below:
//
//   * Clock     — reads logical "now" and schedules callbacks at/after a
//                 logical time. No wall clock anywhere.
//   * Transport — one-port bus semantics (unicast / atomic broadcast / load
//                 transfer + bus_free_at) plus the artifact side-channel
//                 through which the driver records JSONL/trace/metrics
//                 (phase accounting, verdict and compute trace marks, span
//                 mirroring).
//
// The driver (src/protocol/drivers/) owns the other side: the sim adapter
// wraps the cores back into the discrete-event runner. Core files must not
// name sim:: — dlsbl_lint rule `layering` gates on it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/bytes.hpp"

namespace dlsbl::protocol {

// A message as the cores see it: transport-neutral mirror of what crosses
// the bus. `to` is empty for broadcasts; `span_id` carries the sender's
// causal span (0 = untracked) so receivers can parent their own spans on it.
struct WireMessage {
    std::string from;
    std::string to;
    std::uint32_t type = 0;
    util::Bytes payload;
    double sent_at = 0.0;
    std::uint64_t span_id = 0;
};

// Logical time: read now(), request callbacks at an absolute logical time or
// after a logical delay. Scheduling order at equal times is the order the
// requests were made — a driver must preserve that (it is what makes
// artifacts reproducible byte for byte).
class Clock {
 public:
    virtual ~Clock() = default;
    [[nodiscard]] virtual double now() const = 0;
    virtual void call_at(double time, std::function<void()> fn) = 0;
    virtual void call_after(double delay, std::function<void()> fn) = 0;
};

// Communication counters a driver accumulates on behalf of the cores
// (Theorem 5.4 accounting). bytes_by_phase is sorted by phase name.
struct TransportStats {
    std::uint64_t control_messages = 0;
    std::uint64_t control_bytes = 0;
    std::vector<std::pair<std::string, std::uint64_t>> bytes_by_phase;
};

// One-port bus transport + the artifact side-channel.
//
// The note_* hooks exist so the cores never talk to a trace recorder or a
// metrics object directly: the driver decides where phase changes, verdicts
// and compute intervals are recorded (the sim driver mirrors them into a
// sim::TraceRecorder, which feeds the catapult/gantt exports).
class Transport {
 public:
    virtual ~Transport() = default;

    // Reliable unicast; counted in the communication-complexity metrics.
    virtual void unicast(const std::string& from, const std::string& to,
                         std::uint32_t type, util::Bytes payload,
                         std::uint64_t span_id = 0) = 0;

    // Atomic reliable broadcast: every endpoint except the sender receives
    // the identical payload. Counted once (one bus transmission).
    virtual void broadcast(const std::string& from, std::uint32_t type,
                           util::Bytes payload, std::uint64_t span_id = 0) = 0;

    // A load transfer of `units` load: waits for the bus, holds it for
    // units * z, then delivers the payload (the block batch) to `to`.
    virtual void transfer_load(const std::string& from, const std::string& to,
                               double units, std::uint32_t type,
                               util::Bytes payload, std::uint64_t span_id = 0) = 0;

    // Logical time at which the one-port bus next becomes free.
    [[nodiscard]] virtual double bus_free_at() const = 0;

    // --- artifact side-channel ----------------------------------------------
    // Protocol phase changed (metrics phase label + trace mark).
    virtual void note_phase(double time, const std::string& phase) = 0;
    // Referee verdict (trace mark; `detail` = reason + fine).
    virtual void note_verdict(double time, const std::string& actor,
                              const std::string& detail) = 0;
    // Metered compute interval boundaries (trace marks carrying span ids).
    virtual void note_compute_start(double time, const std::string& actor,
                                    const std::string& detail,
                                    std::uint64_t span_id,
                                    std::uint64_t parent_id) = 0;
    virtual void note_compute_end(double time, const std::string& actor,
                                  std::uint64_t span_id,
                                  std::uint64_t parent_id) = 0;
    // Fault-injection mark (crash/restart events, suppressed executions,
    // reallocations); the sim driver mirrors it into the trace as a
    // TraceKind::kChurn event.
    virtual void note_churn(double time, const std::string& actor,
                            const std::string& detail) = 0;
    // Sink the run's SpanBook mirrors into (may be null: spans then exist
    // only in the JSONL event log).
    [[nodiscard]] virtual obs::SpanSink* span_sink() = 0;
};

// A protocol participant: a pure state machine addressed by name. Endpoints
// are owned by the caller and must outlive the driver they attach to.
class Endpoint {
 public:
    virtual ~Endpoint() = default;
    // Called once after every endpoint is attached, before any message flows.
    virtual void on_start() {}
    virtual void on_message(const WireMessage& message) = 0;

    [[nodiscard]] const std::string& name() const noexcept { return name_; }

 protected:
    explicit Endpoint(std::string name) : name_(std::move(name)) {}

 private:
    std::string name_;
};

// Post-run artifact handles (trace recorder + network metrics); defined in
// protocol/detail/run_internals.hpp so this header stays transport-free.
struct RunArtifacts;

// A transport/clock pair plus the event loop that runs the cores to
// quiescence. Lifecycle: attach every endpoint, start(), run().
class Driver {
 public:
    virtual ~Driver() = default;
    [[nodiscard]] virtual Clock& clock() = 0;
    [[nodiscard]] virtual Transport& transport() = 0;
    virtual void attach(Endpoint& endpoint) = 0;
    // Fires every endpoint's on_start() at the current logical time, in
    // lexicographic endpoint-name order (the order determinism depends on).
    virtual void start() = 0;
    // Drains the event loop until no events remain.
    virtual void run() = 0;
    [[nodiscard]] virtual TransportStats stats() = 0;
    // Re-hosts the driver's per-phase network accounting onto `registry`
    // (obs::export_network_metrics shape).
    virtual void finalize_metrics(obs::MetricsRegistry& registry) = 0;
    [[nodiscard]] virtual RunArtifacts artifacts() = 0;
};

}  // namespace dlsbl::protocol
