// Deferred signature verification for the non-blocking message paths.
//
// §4's bidding and payment rounds verify one envelope per arrival, but no
// observable action (accusation, phase change, fine, settlement) depends
// on a verdict until a round boundary: the first m-1 bids just accumulate.
// VerifyQueue exploits that window — arrivals are parked unverified and
// flushed through Pki::verify_many, which amortizes WOTS/Lamport chain
// work across the whole batch (crypto/batch_verify.hpp).
//
// Correctness contract: the flush replays the queued envelopes in arrival
// order against Pki::verify_many, which is itself observably identical to
// sequential Pki::verify calls (verdicts, cache contents, hit/miss stats).
// Callers must flush before ANY action whose bytes could depend on a
// verdict — the endpoint cores do so at every handler entry that reads
// verdict-derived state, plus the conservative structural triggers
// (possible bid conflict, possibly-complete round). Under that discipline
// a run's artifacts are byte-identical at any batch limit; limit <= 1
// degenerates to eager per-arrival verification.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "crypto/pki.hpp"
#include "protocol/config.hpp"
#include "protocol/wire.hpp"
#include "util/bytes.hpp"

namespace dlsbl::protocol {

class VerifyQueue {
 public:
    // A queued envelope: views into the received buffer, which the item
    // shares rather than copies.
    struct Item {
        ProcId from;                       // transport-level sender
        util::SharedBytes buffer;          // keeps `envelope` valid
        wire::SignedMessageView envelope;  // views into *buffer
    };

    explicit VerifyQueue(std::size_t batch_limit) noexcept
        : limit_(batch_limit == 0 ? 1 : batch_limit) {}

    [[nodiscard]] bool empty() const noexcept { return items_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }
    [[nodiscard]] bool full() const noexcept { return items_.size() >= limit_; }

    // Would this payload conflict with a queued envelope from the same
    // sender? (Offense-(i) evidence might be emitted during the replay, so
    // the caller must flush at this arrival, matching the eager schedule.)
    [[nodiscard]] bool conflicts(ProcId from,
                                 std::span<const std::uint8_t> payload) const noexcept {
        for (const auto& item : items_) {
            if (item.from != from) continue;
            if (!std::ranges::equal(item.envelope.payload, payload)) return true;
        }
        return false;
    }

    void push(ProcId from, util::SharedBytes buffer, const wire::SignedMessageView& envelope) {
        items_.push_back({from, std::move(buffer), envelope});
    }

    // Verifies everything queued (one Pki::verify_many batch) and invokes
    // apply(from, buffer, envelope, verified) per item in arrival order.
    // Reentrant pushes during apply() land in the next batch.
    template <typename Apply>
    void flush(const crypto::Pki& pki, Apply&& apply) {
        if (items_.empty()) return;
        std::vector<Item> batch;
        batch.swap(items_);
        std::vector<crypto::Pki::VerifyRequest> requests(batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            requests[i] = {batch[i].envelope.signer, batch[i].envelope.payload,
                           batch[i].envelope.signature};
        }
        // vector<bool> has no data(); byte-backed verdicts instead.
        std::vector<std::uint8_t> verdicts(batch.size());
        static_assert(sizeof(bool) == 1);
        pki.verify_many(requests, reinterpret_cast<bool*>(verdicts.data()));
        for (std::size_t i = 0; i < batch.size(); ++i) {
            apply(batch[i].from, batch[i].buffer, batch[i].envelope, verdicts[i] != 0);
        }
    }

 private:
    std::size_t limit_;
    std::vector<Item> items_;
};

// Per-sender intake bookkeeping beside a VerifyQueue, indexed by ProcId:
// which senders have an accepted ("recorded") item, how many of their
// envelopes are still queued, and who is out of the round. Running counts
// over the senders still in the round make "is the set complete?" and "could
// the queue complete it?" O(1) tests instead of a scan over every name.
//
// Protocol: queued(id) when an envelope enters the queue; record(id) when the
// first item from id is accepted; replayed(id) after the flush has applied
// one of id's envelopes (after, so a record during the replay still sees the
// envelope as queued and the sender is counted once).
class SenderTally {
 public:
    explicit SenderTally(std::size_t senders) : slots_(senders), active_(senders) {}

    [[nodiscard]] bool recorded(ProcId id) const noexcept { return slots_[id].recorded; }
    [[nodiscard]] bool excluded(ProcId id) const noexcept { return slots_[id].excluded; }
    // Senders still in the round / those of them recorded / those of them
    // recorded or with an envelope queued.
    [[nodiscard]] std::size_t active() const noexcept { return active_; }
    [[nodiscard]] std::size_t active_recorded() const noexcept { return recorded_; }
    [[nodiscard]] std::size_t active_covered() const noexcept { return covered_; }

    void queued(ProcId id) {
        Slot& slot = slots_[id];
        if (!slot.excluded && !covered(slot)) ++covered_;
        ++slot.queued;
    }
    void replayed(ProcId id) {
        Slot& slot = slots_[id];
        --slot.queued;
        if (!slot.excluded && !covered(slot)) --covered_;
    }
    void record(ProcId id) {
        Slot& slot = slots_[id];
        if (slot.recorded) return;
        if (!slot.excluded) {
            ++recorded_;
            if (!covered(slot)) ++covered_;
        }
        slot.recorded = true;
    }
    void exclude(ProcId id) {
        Slot& slot = slots_[id];
        if (slot.excluded) return;
        --active_;
        if (slot.recorded) --recorded_;
        if (covered(slot)) --covered_;
        slot.excluded = true;
    }

 private:
    struct Slot {
        std::uint32_t queued = 0;
        bool recorded = false;
        bool excluded = false;
    };
    static bool covered(const Slot& slot) noexcept {
        return slot.recorded || slot.queued > 0;
    }

    std::vector<Slot> slots_;
    std::size_t active_;
    std::size_t recorded_ = 0;
    std::size_t covered_ = 0;
};

}  // namespace dlsbl::protocol
