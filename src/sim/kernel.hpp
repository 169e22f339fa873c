// Deterministic discrete-event simulation kernel.
//
// Events are (time, sequence#) ordered: two events at the same timestamp
// fire in scheduling order, so a run is a pure function of its inputs —
// protocol tests compare traces exactly. Time is simulated seconds;
// nothing here touches wall-clock time.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace dlsbl::sim {

class Simulator {
 public:
    using Callback = std::function<void()>;

    [[nodiscard]] double now() const noexcept { return now_; }

    // Schedules `fn` at absolute simulated time `time` (>= now).
    void schedule_at(double time, Callback fn);

    // Schedules `fn` `delay` seconds from now (delay >= 0).
    void schedule_after(double delay, Callback fn) { schedule_at(now_ + delay, std::move(fn)); }

    // Runs events until the queue drains (or `max_events` fire — a runaway
    // guard; exceeding it throws, since a correct protocol run terminates).
    // A callback counts once however much it does: a network broadcast is
    // one event for all of its recipients.
    void run(std::uint64_t max_events = 10'000'000);

    // Fires the single next event, moved out of the queue (its callback is
    // never copied); returns false when the queue is empty.
    bool step();

    [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
    [[nodiscard]] std::uint64_t events_fired() const noexcept { return fired_; }

 private:
    struct Event {
        double time;
        std::uint64_t seq;
        Callback fn;
    };
    struct Later {
        bool operator()(const Event& a, const Event& b) const noexcept {
            if (a.time != b.time) return a.time > b.time;
            return a.seq > b.seq;
        }
    };

    double now_ = 0.0;
    std::uint64_t next_seq_ = 0;
    std::uint64_t fired_ = 0;
    // Binary min-heap under Later (std::push_heap / std::pop_heap), kept as a
    // plain vector so step() can move the popped event out.
    std::vector<Event> heap_;
};

}  // namespace dlsbl::sim
