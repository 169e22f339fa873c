#include "protocol/meter.hpp"

#include <stdexcept>

namespace dlsbl::protocol {

void MeterBank::start(ProcId processor, double time) {
    auto& span = spans_.at(processor);
    if (span.started()) {
        throw std::logic_error("MeterBank: double start for " + proc_name(processor));
    }
    span.sum_starts += time;
    span.running = 1;
}

void MeterBank::resume(ProcId processor, double time) {
    auto& span = spans_.at(processor);
    if (!span.started()) {
        throw std::logic_error("MeterBank: resume without start for " + proc_name(processor));
    }
    span.sum_starts += time;
    ++span.running;
}

void MeterBank::stop(ProcId processor, double time) {
    auto& span = spans_.at(processor);
    if (span.running == 0) {
        throw std::logic_error("MeterBank: stop without start for " + proc_name(processor));
    }
    span.sum_stops += time;
    if (--span.running == 0) span.ever_done = true;
}

bool MeterBank::started(ProcId processor) const { return spans_.at(processor).started(); }

bool MeterBank::finished(ProcId processor) const {
    const auto& span = spans_.at(processor);
    return span.ever_done && span.running == 0;
}

double MeterBank::elapsed(ProcId processor) const {
    if (!finished(processor)) {
        throw std::logic_error("MeterBank: no finished span for " + proc_name(processor));
    }
    return spans_[processor].sum_stops - spans_[processor].sum_starts;
}

}  // namespace dlsbl::protocol
