// Fixture: near-misses that layering-dag must NOT flag even under a
// protocol-core path. Never compiled.
//
// Comment mentions of sim::Simulator and "sim/kernel.hpp" are fine — the
// lexer strips comments before the rules run.
#include "protocol/endpoint.hpp"

namespace fixture {

// An identifier merely *named* sim is not the sim layer.
struct Transport {
    double bus_free_at() const { return 0.0; }
};

double probe(const Transport& sim) {
    return sim.bus_free_at();  // member access via '.', not 'sim::'
}

// Strings naming the layer are data, not references to it.
const char* const kLabel = "sim::Simulator";
const char* const kPath = "sim/kernel.hpp";

// A similar-looking include outside sim/ passes.
int simulate(int x) { return x + 1; }

}  // namespace fixture
