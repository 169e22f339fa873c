// Fixture for the protocol-codec rule: per-message legacy codec calls in
// the protocol core. Expected findings (when analyzed as src/protocol/*):
//   body.serialize(), msg->serialize(), BidBody::deserialize — 3 total.
// Near-misses that must NOT fire: a declaration, a raw identifier, and
// any of it outside src/protocol.
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

struct BidBody {
    std::vector<std::uint8_t> serialize() const;  // declaration: no finding
    static std::optional<BidBody> deserialize(std::span<const std::uint8_t> d);
};

std::vector<std::uint8_t> ship(const BidBody& body, const BidBody* msg) {
    auto a = body.serialize();
    auto b = msg->serialize();
    auto c = BidBody::deserialize(a);
    (void)c;
    int serialize = 0;  // bare identifier: no finding
    (void)serialize;
    return b;
}
