// Fixture: layering breaches that layering-dag must flag when the file is
// analyzed under a protocol-core path (src/protocol/*.cpp): two sim/
// includes and two sim:: names. Never compiled.
#include "sim/kernel.hpp"
#include "sim/network.hpp"

namespace fixture {

double peek(const sim::Simulator& simulator) {
    return simulator.now();
}

void hook(sim::Network& network) {
    (void)network;
}

}  // namespace fixture
