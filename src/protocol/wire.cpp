#include "protocol/wire.hpp"

namespace dlsbl::protocol::wire {

namespace {

// One length-prefixed signed envelope; the nested record must be consumed
// exactly.
std::optional<SignedMessageView> take_signed(Cursor& c) {
    const auto nested = c.bytes();
    if (!c.ok()) return std::nullopt;
    return SignedMessageView::parse(nested);
}

// One length-prefixed block record.
std::optional<BlockView> take_block(Cursor& c) {
    const auto nested = c.bytes();
    if (!c.ok()) return std::nullopt;
    return BlockView::parse(nested);
}

// Validates `count` block records starting at `c` (bounds and structure
// only — no copies), leaving `c` past the last one. Returns false on the
// first malformed record.
bool walk_blocks(Cursor& c, std::uint64_t count) {
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!take_block(c)) return false;
    }
    return true;
}

}  // namespace

// ---- signed envelopes ------------------------------------------------------

std::optional<SignedMessageView> SignedMessageView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    SignedMessageView view;
    view.signer = c.str();
    view.payload = c.bytes();
    view.signature = c.bytes();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

crypto::SignedMessage SignedMessageView::to_owned() const {
    crypto::SignedMessage msg;
    msg.signer.assign(signer);
    msg.payload.assign(payload.begin(), payload.end());
    msg.signature.assign(signature.begin(), signature.end());
    return msg;
}

std::size_t encoded_size(const crypto::SignedMessage& msg) noexcept {
    return str_size(msg.signer) + bytes_size(msg.payload.size()) +
           bytes_size(msg.signature.size());
}

void encode(const crypto::SignedMessage& msg, FlatWriter& w) noexcept {
    w.str(msg.signer);
    w.bytes(msg.payload);
    w.bytes(msg.signature);
}

util::Bytes flat_signed(std::string_view signer, std::span<const std::uint8_t> payload,
                        std::span<const std::uint8_t> signature) {
    util::Bytes out(str_size(signer) + bytes_size(payload.size()) +
                    bytes_size(signature.size()));
    FlatWriter w(std::span<std::uint8_t>(out.data(), out.size()));
    w.str(signer);
    w.bytes(payload);
    w.bytes(signature);
    return out;
}

// ---- bid -------------------------------------------------------------------

std::optional<BidView> BidView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "bid") return std::nullopt;
    BidView view;
    view.job_id = c.u64();
    view.processor = c.str();
    view.bid = c.f64();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const BidBody& body) noexcept {
    return str_size("bid") + 8 + str_size(body.processor) + 8;
}

void encode(const BidBody& body, FlatWriter& w) noexcept {
    w.str("bid");
    w.u64(body.job_id);
    w.str(body.processor);
    w.f64(body.bid);
}

// ---- blocks ----------------------------------------------------------------

std::optional<BlockView> BlockView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    BlockView view;
    view.id = c.u64();
    view.payload_digest = c.raw(32);
    const auto proof = c.bytes();
    if (!c.exhausted()) return std::nullopt;
    // Nested MerkleProof: u64 leaf_index, u64 count (<= 64), count * 32
    // sibling bytes, nothing trailing — MerkleProof::deserialize verbatim.
    Cursor p(proof);
    view.leaf_index = p.u64();
    const std::uint64_t count = p.u64();
    if (!p.ok() || count > 64 || p.remaining() != count * 32) return std::nullopt;
    view.siblings = p.raw(count * 32);
    return view;
}

std::optional<BlockView> BlockView::next(Cursor& c) { return take_block(c); }

Block BlockView::to_owned() const {
    Block block;
    block.id = id;
    std::memcpy(block.payload_digest.data(), payload_digest.data(),
                block.payload_digest.size());
    block.proof.leaf_index = leaf_index;
    block.proof.siblings.resize(sibling_count());
    std::memcpy(block.proof.siblings.data(), siblings.data(), siblings.size());
    return block;
}

std::size_t encoded_size(const Block& block) noexcept {
    return 8 + 32 + bytes_size(16 + 32 * block.proof.siblings.size());
}

void encode(const Block& block, FlatWriter& w) noexcept {
    w.u64(block.id);
    w.raw(std::span<const std::uint8_t>(block.payload_digest.data(),
                                        block.payload_digest.size()));
    w.u64(16 + 32 * block.proof.siblings.size());
    w.u64(block.proof.leaf_index);
    w.u64(block.proof.siblings.size());
    for (const auto& sibling : block.proof.siblings) {
        w.raw(std::span<const std::uint8_t>(sibling.data(), sibling.size()));
    }
}

namespace {

std::size_t blocks_size(const std::vector<Block>& blocks) noexcept {
    std::size_t total = 8;
    for (const auto& block : blocks) total += bytes_size(encoded_size(block));
    return total;
}

void encode_blocks(const std::vector<Block>& blocks, FlatWriter& w) noexcept {
    w.u64(blocks.size());
    for (const auto& block : blocks) {
        w.u64(encoded_size(block));
        encode(block, w);
    }
}

}  // namespace

// ---- load batch ------------------------------------------------------------

std::optional<LoadBatchView> LoadBatchView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    LoadBatchView view;
    view.origin = c.str();
    view.block_count = c.u64();
    if (!c.ok() || view.block_count > kSanityCap) return std::nullopt;
    view.blocks = c;  // positioned at the first block record
    if (!walk_blocks(c, view.block_count) || !c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const LoadBatch& batch) noexcept {
    return str_size(batch.origin) + blocks_size(batch.blocks);
}

void encode(const LoadBatch& batch, FlatWriter& w) noexcept {
    w.str(batch.origin);
    encode_blocks(batch.blocks, w);
}

// ---- double-bid evidence ---------------------------------------------------

std::optional<DoubleBidEvidenceView> DoubleBidEvidenceView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    DoubleBidEvidenceView view;
    view.accused = c.str();
    const auto first = take_signed(c);
    const auto second = take_signed(c);
    if (!first || !second || !c.exhausted()) return std::nullopt;
    view.first = *first;
    view.second = *second;
    return view;
}

std::size_t encoded_size(const DoubleBidEvidence& evidence) noexcept {
    return str_size(evidence.accused) + bytes_size(encoded_size(evidence.first)) +
           bytes_size(encoded_size(evidence.second));
}

void encode(const DoubleBidEvidence& evidence, FlatWriter& w) noexcept {
    w.str(evidence.accused);
    w.u64(encoded_size(evidence.first));
    encode(evidence.first, w);
    w.u64(encoded_size(evidence.second));
    encode(evidence.second, w);
}

// ---- allocation complaint --------------------------------------------------

std::optional<AllocComplaintView> AllocComplaintView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    const std::uint8_t kind = c.u8();
    if (!c.ok() || kind < 1 || kind > 3) return std::nullopt;
    AllocComplaintView view;
    view.kind = static_cast<AllocComplaintKind>(kind);
    view.complainant = c.str();
    view.expected_blocks = c.u64();
    view.received_blocks = c.u64();
    view.held_count = c.u64();
    if (!c.ok() || view.held_count > kSanityCap) return std::nullopt;
    view.held = c;
    if (!walk_blocks(c, view.held_count) || !c.exhausted()) return std::nullopt;
    return view;
}

AllocComplaintBody AllocComplaintView::to_owned() const {
    AllocComplaintBody body;
    body.kind = kind;
    body.complainant.assign(complainant);
    body.expected_blocks = expected_blocks;
    body.received_blocks = received_blocks;
    body.held_blocks.reserve(held_count);
    Cursor c = held;
    for (std::uint64_t i = 0; i < held_count; ++i) {
        body.held_blocks.push_back(take_block(c)->to_owned());
    }
    return body;
}

std::size_t encoded_size(const AllocComplaintBody& body) noexcept {
    return 1 + str_size(body.complainant) + 8 + 8 + blocks_size(body.held_blocks);
}

void encode(const AllocComplaintBody& body, FlatWriter& w) noexcept {
    w.u8(static_cast<std::uint8_t>(body.kind));
    w.str(body.complainant);
    w.u64(body.expected_blocks);
    w.u64(body.received_blocks);
    encode_blocks(body.held_blocks, w);
}

// ---- bid vector ------------------------------------------------------------

std::optional<SignedMessageView> BidVectorView::next_signed(Cursor& c) {
    return take_signed(c);
}

std::optional<BidVectorView> BidVectorView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    BidVectorView view;
    view.submitter = c.str();
    view.bid_count = c.u64();
    if (!c.ok() || view.bid_count > kSanityCap) return std::nullopt;
    view.bids = c;
    for (std::uint64_t i = 0; i < view.bid_count; ++i) {
        if (!take_signed(c)) return std::nullopt;
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

BidVectorBody BidVectorView::to_owned() const {
    BidVectorBody body;
    body.submitter.assign(submitter);
    body.bids.reserve(bid_count);
    Cursor c = bids;
    for (std::uint64_t i = 0; i < bid_count; ++i) {
        body.bids.push_back(take_signed(c)->to_owned());
    }
    return body;
}

std::size_t encoded_size(const BidVectorBody& body) noexcept {
    std::size_t total = str_size(body.submitter) + 8;
    for (const auto& bid : body.bids) total += bytes_size(encoded_size(bid));
    return total;
}

void encode(const BidVectorBody& body, FlatWriter& w) noexcept {
    w.str(body.submitter);
    w.u64(body.bids.size());
    for (const auto& bid : body.bids) {
        w.u64(encoded_size(bid));
        encode(bid, w);
    }
}

// ---- mediate request -------------------------------------------------------

std::optional<MediateRequestView> MediateRequestView::parse(
    std::span<const std::uint8_t> data) {
    Cursor c(data);
    MediateRequestView view;
    view.beneficiary = c.str();
    view.id_count = c.u64();
    if (!c.ok() || view.id_count > kSanityCap) return std::nullopt;
    view.ids = c;
    c.raw(8 * view.id_count);
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const MediateRequestBody& body) noexcept {
    return str_size(body.beneficiary) + 8 + 8 * body.block_ids.size();
}

void encode(const MediateRequestBody& body, FlatWriter& w) noexcept {
    w.str(body.beneficiary);
    w.u64(body.block_ids.size());
    for (const std::uint64_t id : body.block_ids) w.u64(id);
}

// ---- meter vector ----------------------------------------------------------

std::optional<MeterVectorView> MeterVectorView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "meters") return std::nullopt;
    MeterVectorView view;
    view.job_id = c.u64();
    view.phi_count = c.u64();
    if (!c.ok() || view.phi_count > kSanityCap) return std::nullopt;
    view.phis = c;
    for (std::uint64_t i = 0; i < view.phi_count; ++i) {
        c.str();
        c.f64();
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const MeterVectorBody& body) noexcept {
    std::size_t total = str_size("meters") + 8 + 8;
    for (const auto& [processor, phi] : body.phis) total += str_size(processor) + 8;
    return total;
}

void encode(const MeterVectorBody& body, FlatWriter& w) noexcept {
    w.str("meters");
    w.u64(body.job_id);
    w.u64(body.phis.size());
    for (const auto& [processor, phi] : body.phis) {
        w.str(processor);
        w.f64(phi);
    }
}

// ---- payment vector --------------------------------------------------------

std::optional<PaymentView> PaymentView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "payments") return std::nullopt;
    PaymentView view;
    view.job_id = c.u64();
    view.processor = c.str();
    view.payment_count = c.u64();
    if (!c.ok() || view.payment_count > kSanityCap) return std::nullopt;
    view.payments = c;
    c.raw(8 * view.payment_count);
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const PaymentBody& body) noexcept {
    return str_size("payments") + 8 + str_size(body.processor) + 8 +
           8 * body.payments.size();
}

void encode(const PaymentBody& body, FlatWriter& w) noexcept {
    w.str("payments");
    w.u64(body.job_id);
    w.str(body.processor);
    w.u64(body.payments.size());
    for (const double q : body.payments) w.f64(q);
}

// ---- terminate -------------------------------------------------------------

std::optional<TerminateView> TerminateView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    TerminateView view;
    view.reason = c.str();
    view.fined_count = c.u64();
    if (!c.ok() || view.fined_count > kSanityCap) return std::nullopt;
    view.fined = c;
    for (std::uint64_t i = 0; i < view.fined_count; ++i) c.str();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const TerminateBody& body) noexcept {
    std::size_t total = str_size(body.reason) + 8;
    for (const auto& id : body.fined) total += str_size(id);
    return total;
}

void encode(const TerminateBody& body, FlatWriter& w) noexcept {
    w.str(body.reason);
    w.u64(body.fined.size());
    for (const auto& id : body.fined) w.str(id);
}

// ---- exclude ---------------------------------------------------------------

std::optional<ExcludeView> ExcludeView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "exclude") return std::nullopt;
    ExcludeView view;
    view.job_id = c.u64();
    view.excluded_count = c.u64();
    if (!c.ok() || view.excluded_count > kSanityCap) return std::nullopt;
    view.excluded = c;
    for (std::uint64_t i = 0; i < view.excluded_count; ++i) c.str();
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const ExcludeBody& body) noexcept {
    std::size_t total = str_size("exclude") + 8 + 8;
    for (const auto& name : body.excluded) total += str_size(name);
    return total;
}

void encode(const ExcludeBody& body, FlatWriter& w) noexcept {
    w.str("exclude");
    w.u64(body.job_id);
    w.u64(body.excluded.size());
    for (const auto& name : body.excluded) w.str(name);
}

// ---- realloc ---------------------------------------------------------------

std::optional<ReallocView> ReallocView::parse(std::span<const std::uint8_t> data) {
    Cursor c(data);
    if (c.str() != "realloc") return std::nullopt;
    ReallocView view;
    view.job_id = c.u64();
    view.dead = c.str();
    view.dead_final = c.u64();
    view.extra_count = c.u64();
    if (!c.ok() || view.extra_count > kSanityCap) return std::nullopt;
    view.extras = c;
    for (std::uint64_t i = 0; i < view.extra_count; ++i) {
        c.str();
        c.u64();
    }
    if (!c.exhausted()) return std::nullopt;
    return view;
}

std::size_t encoded_size(const ReallocBody& body) noexcept {
    std::size_t total = str_size("realloc") + 8 + str_size(body.dead) + 8 + 8;
    for (const auto& [name, count] : body.extras) total += str_size(name) + 8;
    return total;
}

void encode(const ReallocBody& body, FlatWriter& w) noexcept {
    w.str("realloc");
    w.u64(body.job_id);
    w.str(body.dead);
    w.u64(body.dead_final);
    w.u64(body.extras.size());
    for (const auto& [name, count] : body.extras) {
        w.str(name);
        w.u64(count);
    }
}

}  // namespace dlsbl::protocol::wire
