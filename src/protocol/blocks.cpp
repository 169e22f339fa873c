#include "protocol/blocks.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace dlsbl::protocol {

namespace {

crypto::Digest leaf_digest(std::uint64_t id, const crypto::Digest& payload) {
    util::ByteWriter w;
    w.str("block-leaf");
    w.u64(id);
    w.raw(std::span<const std::uint8_t>(payload.data(), payload.size()));
    return crypto::Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.data().size()));
}

std::vector<crypto::Digest> build_leaves(std::uint64_t job_id, std::size_t block_count) {
    if (block_count == 0) throw std::invalid_argument("DataSet: need at least one block");
    std::vector<crypto::Digest> leaves;
    leaves.reserve(block_count);
    for (std::uint64_t id = 0; id < block_count; ++id) {
        leaves.push_back(leaf_digest(id, DataSet::payload_for(job_id, id)));
    }
    return leaves;
}

}  // namespace

DataSet::DataSet(std::uint64_t job_id, std::size_t block_count)
    : job_id_(job_id), digests_(build_leaves(job_id, block_count)), tree_(digests_) {}

crypto::Digest DataSet::payload_for(std::uint64_t job_id, std::uint64_t id) {
    util::ByteWriter w;
    w.str("job-data");
    w.u64(job_id);
    w.u64(id);
    return crypto::Sha256::hash(std::span<const std::uint8_t>(w.data().data(), w.data().size()));
}

Block DataSet::block(std::uint64_t id) const {
    if (id >= digests_.size()) throw std::out_of_range("DataSet: bad block id");
    Block block;
    block.id = id;
    block.payload_digest = payload_for(job_id_, id);
    block.proof = tree_.prove(id);
    return block;
}

bool DataSet::verify_block(const crypto::Digest& root, const Block& block) {
    if (block.proof.leaf_index != block.id) return false;
    return crypto::MerkleTree::verify(root, leaf_digest(block.id, block.payload_digest),
                                      block.proof);
}

std::vector<std::size_t> DataSet::blocks_for_allocation(std::size_t block_count,
                                                        const std::vector<double>& alpha) {
    const std::size_t m = alpha.size();
    if (m == 0) throw std::invalid_argument("blocks_for_allocation: empty allocation");
    std::vector<std::size_t> counts(m, 0);
    std::vector<std::pair<double, std::size_t>> remainders;  // (frac, index)
    remainders.reserve(m);
    std::size_t assigned = 0;
    for (std::size_t i = 0; i < m; ++i) {
        const double exact = alpha[i] * static_cast<double>(block_count);
        counts[i] = static_cast<std::size_t>(std::floor(exact));
        assigned += counts[i];
        remainders.emplace_back(exact - std::floor(exact), i);
    }
    // Hand leftover blocks to the largest remainders (ties by index for
    // determinism).
    std::sort(remainders.begin(), remainders.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    if (assigned > block_count) throw std::logic_error("blocks_for_allocation: overflow");
    for (std::size_t k = 0; assigned < block_count; ++k, ++assigned) {
        counts[remainders[k % m].second] += 1;
    }
    return counts;
}

}  // namespace dlsbl::protocol
