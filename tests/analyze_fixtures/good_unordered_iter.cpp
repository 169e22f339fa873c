// Taint fixture: unordered-iteration near-misses. Analyzed as
// src/protocol/ or src/crypto/ this file must raise zero findings:
// ordered containers iterate freely, and unordered containers are fine for
// order-independent membership tests and point lookups.
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

struct Index {
    std::map<std::string, int> ordered_;
    std::unordered_map<std::string, int> cache_;
    std::vector<int> values_;

    int sum_ordered() const {
        int total = 0;
        for (const auto& [key, value] : ordered_) total += value;  // std::map: fine
        for (int v : values_) total += v;                          // vector: fine
        return total;
    }

    bool contains(const std::string& key) const {
        // Point lookup + end-sentinel comparison: order-independent.
        return cache_.find(key) != cache_.end();
    }

    int lookup(const std::string& key) const {
        const auto it = cache_.find(key);
        return it == cache_.cend() ? 0 : it->second;
    }

    void remember(const std::string& key, int value) {
        cache_[key] = value;
        cache_.emplace(key, value);
    }
};
