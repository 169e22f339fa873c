// A strategic processor participating in DLS-BL-NCP.
//
// Implements the processor side of all five protocol stages (§4):
// bidding (all-to-all signed broadcast), local allocation computation,
// load shipping / receipt with integrity checks, metered processing, and
// payment-vector computation. Every prescribed step has a deviation hook
// driven by the node's Strategy (see protocol/strategy.hpp); the honest
// strategy follows the mechanism exactly.
//
// NodeCore is a sans-I/O state machine: it reaches the world only through
// the context's Clock/Transport pair and receives input as WireMessages —
// no transport types appear here, so any driver can host it.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "protocol/context.hpp"
#include "protocol/dispatch.hpp"
#include "protocol/endpoint.hpp"
#include "protocol/verify_queue.hpp"
#include "protocol/wire.hpp"

namespace dlsbl::protocol {

class NodeCore final : public Endpoint {
 public:
    NodeCore(RunContext& context, std::size_t index,
             std::unique_ptr<crypto::Signer> signer, Strategy strategy);

    void on_start() override;
    void on_message(const WireMessage& message) override;

    // --- inspection (used by the runner's outcome extraction) ---------------
    [[nodiscard]] const Strategy& strategy() const noexcept { return strategy_; }
    [[nodiscard]] double bid_value() const noexcept { return bid_; }
    [[nodiscard]] double exec_rate() const noexcept { return exec_rate_; }
    [[nodiscard]] std::size_t blocks_assigned() const noexcept { return blocks_assigned_; }
    [[nodiscard]] std::size_t blocks_received() const noexcept { return valid_received_; }
    [[nodiscard]] const std::vector<double>& allocation() const noexcept { return alpha_; }
    [[nodiscard]] const std::vector<double>& payment_vector() const noexcept {
        return payment_vector_;
    }
    [[nodiscard]] bool settled() const noexcept { return settled_; }
    // Blocks received via a churn reallocation (0 outside churn mode).
    [[nodiscard]] std::size_t blocks_extra() const noexcept { return extra_received_; }
    // Excluded at the churn bid deadline (a crashed-then-restarted bidder).
    [[nodiscard]] bool excluded_self() const noexcept { return excluded_self_; }

 private:
    void register_handlers();
    [[nodiscard]] bool is_load_origin() const;
    void broadcast_bid(double value);
    void handle_bid(const WireMessage& message);
    // Post-verification bid intake (record / dedup / accuse / finish) —
    // runs eagerly per arrival, or replayed in arrival order by a queue
    // flush; the two schedules are byte-identical (see verify_queue.hpp).
    void apply_bid(const std::string& from, const crypto::SignedMessage& envelope,
                   bool verified);
    // Conservative structural test: could recording the pending envelopes
    // complete the active bid set? (Completion is the only verdict-
    // dependent observable that isn't a conflict.)
    [[nodiscard]] bool bid_set_possibly_complete() const;
    void flush_pending_bids();
    void maybe_finish_bidding();
    void ship_loads();
    void handle_load_delivery(const WireMessage& message);
    void begin_processing(std::size_t blocks);
    void handle_meter_broadcast(const WireMessage& message);
    void handle_exclude(const WireMessage& message);
    void handle_realloc(const WireMessage& message);
    // Canonical settlement over the surviving bidders (churn mode's
    // replacement for the mech::DlsBl payment computation).
    [[nodiscard]] std::vector<double> churn_payment_vector(
        const wire::MeterVectorView& view);
    void handle_bid_vector_request();
    void handle_mediate_request(const WireMessage& message);
    void file_complaint(AllocComplaintKind kind, std::size_t expected, std::size_t received,
                        std::vector<Block> held);
    void maybe_false_accuse(const crypto::SignedMessage& genuine);

    RunContext& ctx_;
    std::size_t index_;
    double true_w_;
    Strategy strategy_;
    std::unique_ptr<crypto::Signer> signer_;
    MessageDispatcher dispatch_;

    double bid_ = 0.0;
    double exec_rate_ = 0.0;

    // First valid signed bid per sender, in arrival order; a second,
    // different valid bid from the same sender is offense (i) evidence.
    std::map<std::string, crypto::SignedMessage> first_bids_;
    // Arrival-order intake queue for deferred bid verification
    // (config.verify_batch envelopes per Pki::verify_many flush).
    VerifyQueue pending_bids_;
    std::map<std::string, double> bid_values_;
    bool accused_double_bid_ = false;
    bool false_accused_ = false;
    bool bidding_finished_ = false;

    std::vector<double> alpha_;               // closed-form allocation from bids
    std::vector<std::size_t> block_counts_;   // block-rounded assignment
    std::size_t blocks_assigned_ = 0;
    std::size_t valid_received_ = 0;
    std::vector<Block> held_blocks_;
    bool processing_started_ = false;
    bool complaint_filed_ = false;
    // Causal parent for the compute span: the verify span of the delivery
    // that triggered processing (0 = parent on the phase span instead).
    std::uint64_t compute_parent_span_ = 0;

    std::vector<double> payment_vector_;
    bool settled_ = false;

    // --- churn state (untouched outside churn mode) --------------------------
    util::Bytes bid_payload_;            // first signed bid, stored for stale replay
    std::set<std::string> excluded_;     // referee's bid-deadline exclusions
    bool exclude_received_ = false;
    bool excluded_self_ = false;
    std::size_t extra_pending_ = 0;      // reallocated blocks awaiting delivery
    std::size_t extra_received_ = 0;
    std::string realloc_dead_;
    std::uint64_t realloc_dead_final_ = 0;
    std::vector<std::pair<std::string, std::uint64_t>> realloc_extras_;
    bool payment_submitted_ = false;
};

}  // namespace dlsbl::protocol
