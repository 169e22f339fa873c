// Taint fixture: direct iteration over unordered containers. Expected
// taint-determinism findings when analyzed as src/protocol/ or
// src/crypto/: 4, one per iterating function
// (range-for over table_, range-for over seen, table_.begin(), ids->cbegin()).
#include <string>
#include <unordered_map>
#include <unordered_set>

struct Ledger {
    std::unordered_map<std::string, int> table_;
    std::unordered_set<int>* ids = nullptr;

    int sum() const {
        int total = 0;
        for (const auto& [key, value] : table_) {  // finding: range-for
            total += value;
        }
        return total;
    }

    int first() const {
        auto it = table_.begin();  // finding: iterator walk
        return it == table_.end() ? 0 : it->second;
    }
};

int count_ids(const Ledger& ledger) {
    int n = 0;
    for (auto it = ledger.ids->cbegin(); it != ledger.ids->cend(); ++it) {
        ++n;  // cbegin on line above is the finding; .cend() alone is not
    }
    return n;
}

int count_seen() {
    std::unordered_set<int> seen;
    seen.insert(1);
    int n = 0;
    for (int v : seen) n += v;  // finding: range-for over local
    return n;
}
