// Driver factory: the transport that hosts the sans-I/O protocol cores.
// This header is transport-free (no sim:: names) so the core runner can
// include it; the implementation lives behind it.
//
// The sim driver wraps the cores back into the discrete-event kernel
// (sim::Simulator + sim::Network) and implements the paper's one-port bus
// semantics (§2). Its artifacts match the pre-split runner byte for byte.
#pragma once

#include <memory>

#include "protocol/churn.hpp"
#include "protocol/endpoint.hpp"

namespace dlsbl::protocol {

// `z`: bus seconds per unit load; `control_latency`: constant delivery
// latency for control messages; `control_seconds_per_byte`: when > 0,
// control messages are charged bandwidth and occupy the bus (bench E22).
// `churn_plan`: fault-injection plan; every delivery is ruled through
// churn_ruling(). The default (empty) plan makes delivery unconditional.
std::unique_ptr<Driver> make_sim_driver(double z, double control_latency,
                                        double control_seconds_per_byte,
                                        ChurnPlan churn_plan = {});

}  // namespace dlsbl::protocol
