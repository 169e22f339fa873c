#include "sim/kernel.hpp"

#include <algorithm>
#include <cmath>

namespace dlsbl::sim {

void Simulator::schedule_at(double time, Callback fn) {
    if (!std::isfinite(time)) throw std::invalid_argument("Simulator: non-finite time");
    if (time < now_) throw std::invalid_argument("Simulator: scheduling into the past");
    if (!fn) throw std::invalid_argument("Simulator: empty callback");
    heap_.push_back(Event{time, next_seq_++, std::move(fn)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::step() {
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event event = std::move(heap_.back());
    heap_.pop_back();
    now_ = event.time;
    ++fired_;
    event.fn();
    return true;
}

void Simulator::run(std::uint64_t max_events) {
    while (step()) {
        if (fired_ > max_events) {
            throw std::runtime_error("Simulator: event budget exceeded (runaway run?)");
        }
    }
}

}  // namespace dlsbl::sim
