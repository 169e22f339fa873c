// User data blocks (§4 Initialization).
//
// "The user prepares her data by dividing it into small, equal-sized
// blocks. Each block B has a unique identifier I_B appended to it and then
// the aggregate is signed by the user, i.e., S_user(B, I_B)."
//
// Implementation: block contents are synthetic (derived from the block id);
// the user commits to the whole data set with a Merkle tree over the block
// digests and signs the root. Each shipped block carries its id and Merkle
// proof, so *any* participant — in particular the referee during an
// Allocating-Load dispute — can check that a block belongs to the original
// data set and that its payload is intact.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/merkle.hpp"
#include "crypto/pki.hpp"
#include "util/bytes.hpp"

namespace dlsbl::protocol {

struct Block {
    std::uint64_t id = 0;
    crypto::Digest payload_digest{};  // stands in for the actual data bytes
    crypto::MerkleProof proof;
};

class DataSet {
 public:
    // Splits the (synthetic) unit load into `block_count` equal blocks and
    // builds the Merkle commitment.
    DataSet(std::uint64_t job_id, std::size_t block_count);

    [[nodiscard]] std::size_t block_count() const noexcept { return digests_.size(); }
    [[nodiscard]] const crypto::Digest& root() const noexcept { return tree_.root(); }
    [[nodiscard]] std::uint64_t job_id() const noexcept { return job_id_; }

    // The authenticated block with the given id.
    [[nodiscard]] Block block(std::uint64_t id) const;

    // Integrity check against a known root: proof binds (id, payload digest).
    static bool verify_block(const crypto::Digest& root, const Block& block);

    // Deterministic payload digest for block `id` of job `job_id` — the
    // synthetic stand-in for hashing the real data bytes.
    static crypto::Digest payload_for(std::uint64_t job_id, std::uint64_t id);

    // Maps a load allocation α (fractions summing to 1) to whole block
    // counts via largest-remainder rounding; the counts sum to block_count.
    static std::vector<std::size_t> blocks_for_allocation(std::size_t block_count,
                                                          const std::vector<double>& alpha);

 private:
    std::uint64_t job_id_;
    std::vector<crypto::Digest> digests_;
    crypto::MerkleTree tree_;
};

}  // namespace dlsbl::protocol
