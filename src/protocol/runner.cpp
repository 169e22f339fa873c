#include "protocol/runner.hpp"

#include <memory>

#include "obs/event.hpp"
#include "obs/profiler.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/drivers/drivers.hpp"
#include "util/logging.hpp"

namespace dlsbl::protocol {

ProtocolOutcome run_protocol(const ProtocolConfig& config, const RunObserver& observer) {
    OBS_SCOPE("protocol_run");
    ProtocolConfig cfg = config;
    cfg.validate();
    if (cfg.strategies.empty()) cfg.strategies.assign(cfg.true_w.size(), Strategy{});

    util::log_debug("runner", "run start: kind=" + std::string(dlt::to_string(cfg.kind)) +
                                  " m=" + std::to_string(cfg.true_w.size()) +
                                  " blocks=" + std::to_string(cfg.block_count) +
                                  " seed=" + std::to_string(cfg.seed));

    std::unique_ptr<Driver> driver = make_sim_driver(
        cfg.z, cfg.control_latency, cfg.control_seconds_per_byte, cfg.churn_plan);
    RunContext context(driver->clock(), driver->transport(), cfg);

    // Initialization (§4): every participant registers a key with the PKI.
    // The user also registers (it signs the data-set commitment).
    std::vector<std::unique_ptr<crypto::Signer>> signers;
    for (std::size_t i = 0; i < context.processor_count(); ++i) {
        signers.push_back(crypto::make_registered_signer(
            context.pki(), context.processor_names()[i], cfg.seed * 1000 + i,
            cfg.signature_algorithm, cfg.mss_height, cfg.crypto_keygen_jobs));
    }
    auto user_signer = crypto::make_registered_signer(
        context.pki(), context.user_name(), cfg.seed * 1000 + 999,
        cfg.signature_algorithm, cfg.mss_height, cfg.crypto_keygen_jobs);

    RefereeCore referee(context);
    driver->attach(referee);
    context.set_referee(referee);
    context.set_expected_workers(context.processor_count());

    std::vector<std::unique_ptr<NodeCore>> nodes;
    for (std::size_t i = 0; i < context.processor_count(); ++i) {
        nodes.push_back(std::make_unique<NodeCore>(
            context, i, std::move(signers[i]), cfg.strategies[i]));
        driver->attach(*nodes.back());
    }

    driver->start();
    driver->run();
    // The event loop has quiesced: close the phase and run spans so the
    // causal tree is well-formed in the trace/JSONL artifacts.
    context.close_run_span();

    // ---- outcome extraction -------------------------------------------------
    const TransportStats transport_stats = driver->stats();
    ProtocolOutcome outcome;
    outcome.terminated_early = context.terminated();
    outcome.termination_reason = context.termination_reason();
    outcome.ended_in = context.terminated() ? context.phase() : Phase::kDone;
    outcome.fine_amount = context.fine_amount();
    outcome.makespan = context.last_compute_end();
    outcome.user_paid = referee.user_paid();
    outcome.control_messages = transport_stats.control_messages;
    outcome.control_bytes = transport_stats.control_bytes;
    outcome.bytes_by_phase = transport_stats.bytes_by_phase;
    outcome.churn_excluded.assign(referee.churn_excluded().begin(),
                                  referee.churn_excluded().end());
    outcome.churn_dead = referee.churn_dead();
    outcome.churn_realloc_blocks = referee.churn_realloc_blocks();

    const auto& settled = referee.settled_payments();
    for (std::size_t i = 0; i < context.processor_count(); ++i) {
        const auto& name = context.processor_names()[i];
        const NodeCore& node = *nodes[i];
        ProcessorOutcome p;
        p.name = name;
        p.true_w = cfg.true_w[i];
        p.bid = node.bid_value();
        p.exec_rate = context.clamp_rate(name, node.exec_rate());
        p.blocks_assigned = node.blocks_assigned();
        p.blocks_received =
            (name == context.load_origin()) ? node.blocks_assigned() : node.blocks_received();
        p.blocks_extra = node.blocks_extra();
        // A crashed bidder never hears the kExclude broadcast, so its own
        // flag can stay false; the referee's ruling is authoritative.
        p.excluded = node.excluded_self() || referee.churn_excluded().contains(name);
        if (!node.allocation().empty()) p.alpha = node.allocation()[i];
        p.commenced_work = context.meters().started(name);
        if (context.meters().finished(name)) p.phi = context.meters().elapsed(name);

        if (referee.settled() && i < settled.size()) p.payment = settled[i];
        if (auto it = referee.fines().find(name); it != referee.fines().end()) {
            p.fines = it->second;
            p.fined = true;
        }
        if (auto it = referee.rewards().find(name); it != referee.rewards().end()) {
            p.rewards = it->second;
        }
        if (auto it = referee.compensations().find(name);
            it != referee.compensations().end()) {
            p.rewards += it->second;  // termination compensation is income too
        }
        // Actual cost: the fraction of the unit load this node really ran,
        // at its realized rate (only if it ran).
        if (p.commenced_work) {
            // Reallocation extras are real executed work too; a crashed
            // processor's cost reflects only its meter-proved fraction.
            std::size_t executed =
                (name == context.load_origin()) ? node.blocks_assigned()
                                                : node.blocks_received();
            executed += node.blocks_extra();
            if (name == referee.churn_dead()) {
                executed = referee.churn_realloc_blocks() <= executed
                               ? executed - referee.churn_realloc_blocks()
                               : 0;
            }
            p.work_cost = (static_cast<double>(executed) /
                           static_cast<double>(cfg.block_count)) *
                          p.exec_rate;
        }
        // Decompose the settled payment for reporting (C_i at the realized
        // rate; bonus is the remainder).
        if (referee.settled() && i < settled.size()) {
            p.compensation = p.alpha * p.exec_rate;
            p.bonus = p.payment - p.compensation;
        }
        outcome.processors.push_back(std::move(p));
    }

    // Re-host the transport's per-phase accounting onto the run's registry
    // so one dump carries the Theorem 5.4 counters next to the referee's.
    driver->finalize_metrics(context.metrics_registry());

    // Sim-time makespan distribution. The value comes off the event clock,
    // not the host clock, so the histogram stays deterministic per seed and
    // upstream merges keep snapshots byte-identical at any --jobs.
    context.metrics_registry().set_help("dlsbl_run_makespan_seconds",
                                        "Sim-time makespan per protocol run");
    context.metrics_registry()
        .histogram("dlsbl_run_makespan_seconds",
                   {0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0})
        .observe(outcome.makespan);

    // Process-wide aggregates (bench RunManifests snapshot these).
    auto& global = obs::MetricsRegistry::global();
    global.counter("dlsbl_runs_total").inc();
    if (outcome.terminated_early) global.counter("dlsbl_runs_terminated_total").inc();
    global.counter("dlsbl_control_messages_total").inc(outcome.control_messages);
    global.counter("dlsbl_control_bytes_total").inc(outcome.control_bytes);

    util::log_debug("runner",
                    outcome.terminated_early
                        ? "run terminated: " + outcome.termination_reason
                        : "run settled: makespan=" + std::to_string(outcome.makespan));
    auto& events = obs::EventLog::instance();
    if (events.enabled(obs::LogLevel::Debug)) {
        events.emit(obs::Event(obs::LogLevel::Debug, "runner", "run_summary")
                        .time(driver->clock().now())
                        .str("kind", dlt::to_string(cfg.kind))
                        .uint("m", cfg.true_w.size())
                        .uint("seed", cfg.seed)
                        .boolean("terminated", outcome.terminated_early)
                        .num("makespan", outcome.makespan)
                        .num("user_paid", outcome.user_paid)
                        .uint("control_messages", outcome.control_messages)
                        .uint("control_bytes", outcome.control_bytes));
    }

    if (observer) {
        RunInternals internals{context, referee, nodes, driver->artifacts()};
        observer(internals);
    }
    return outcome;
}

ProtocolOutcome run_protocol(const ProtocolConfig& config) {
    return run_protocol(config, RunObserver{});
}

}  // namespace dlsbl::protocol
