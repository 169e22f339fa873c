// Tamper-proof execution meters (§4 Processing Load).
//
// "We assume that the processors are augmented with a tamper-proof meter
// that reports the time executing the assigned load. The referee has
// access to the meters and records φ_i."
//
// Tamper-proofness is modelled by ownership: the meter bank is written by
// the simulation kernel (the runner's compute-completion events), never by
// the agent code, so a strategic processor cannot misreport φ_i — it can
// only *actually* run slower, which the meter then faithfully records.
//
// start() is one-shot per processor (a second start is a protocol bug and
// throws). Churn reallocation legitimately hands a survivor a second batch,
// so resume() reopens the meter and φ_i accumulates across segments; the
// meter reads as finished() only while no segment is open.
#pragma once

#include <cstddef>
#include <vector>

#include "protocol/config.hpp"

namespace dlsbl::protocol {

class MeterBank {
 public:
    // One meter per processor, indexed by ProcId; an id >= `processors`
    // throws std::out_of_range.
    explicit MeterBank(std::size_t processors) : spans_(processors) {}

    void start(ProcId processor, double time);
    // Reopens an existing meter for an extra (reallocated) batch. Segments
    // may overlap — a survivor can receive its extra while still computing
    // its primary batch — and φ then sums the per-batch durations, the
    // block-work time a per-batch meter would report.
    void resume(ProcId processor, double time);
    void stop(ProcId processor, double time);

    [[nodiscard]] bool started(ProcId processor) const;
    [[nodiscard]] bool finished(ProcId processor) const;

    // φ_i: total time spent executing the assigned load.
    [[nodiscard]] double elapsed(ProcId processor) const;

 private:
    struct Span {
        double sum_starts = 0.0;  // Σ segment starts
        double sum_stops = 0.0;   // Σ segment stops; φ = sum_stops - sum_starts
        int running = 0;          // open segments
        bool ever_done = false;   // at least one segment completed
        [[nodiscard]] bool started() const noexcept { return running > 0 || ever_done; }
    };
    std::vector<Span> spans_;
};

}  // namespace dlsbl::protocol
