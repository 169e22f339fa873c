// dlsbl_cli: run one DLS-BL-NCP protocol execution from the command line.
//
// Usage:
//   dlsbl_cli [--kind fe|nfe] [--z <double>] [--w <w1,w2,...>]
//             [--strategy <index>:<name>]... [--blocks N] [--latency L]
//             [--fine F] [--seed S] [--trace] [--repeat N] [--jobs N]
//             [--log-level off|error|warn|info|debug]
//             [--jsonl-out <file.jsonl>] [--trace-out <file.json>]
//             [--metrics-out <file.txt>] [--profile]
//
// --repeat N runs N independent instances whose seeds derive from --seed
// (util::derive_seed), submitted through exec::RunExecutor; --jobs N (or
// DLSBL_JOBS) sets the worker count. Output — including the JSONL event
// log — is byte-identical for any --jobs value.
//
// Strategy names: truthful, underbidder, overbidder, slow_executor,
// masked_overbidder, inconsistent_bidder, short_shipping_lo,
// over_shipping_lo, corrupting_lo, refusing_lo, payment_cheater,
// contradictory_payer, bid_vector_tamperer, false_accuser,
// false_short_claimer, silent_observer.
//
// Example:
//   dlsbl_cli --kind nfe --z 0.3 --w 1.0,2.0,1.5 --strategy 1:payment_cheater
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <fstream>

#include "agents/zoo.hpp"
#include "bench/common.hpp"
#include "exec/executor.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "obs/exporter.hpp"
#include "obs/manifest.hpp"
#include "obs/profiler.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "util/table.hpp"

using namespace dlsbl;

namespace {

protocol::Strategy strategy_by_name(const std::string& name) {
    static const std::map<std::string, protocol::Strategy (*)()> kZoo{
        {"truthful", agents::truthful},
        {"underbidder", agents::underbidder},
        {"overbidder", agents::overbidder},
        {"inconsistent_bidder", [] { return agents::inconsistent_bidder(); }},
        {"short_shipping_lo", [] { return agents::short_shipping_lo(); }},
        {"over_shipping_lo", [] { return agents::over_shipping_lo(); }},
        {"corrupting_lo", agents::corrupting_lo},
        {"refusing_lo", agents::refusing_lo},
        {"payment_cheater", agents::payment_cheater},
        {"contradictory_payer", agents::contradictory_payer},
        {"bid_vector_tamperer", agents::bid_vector_tamperer},
        {"false_accuser", agents::false_accuser},
        {"false_short_claimer", agents::false_short_claimer},
        {"silent_observer", agents::silent_observer},
        {"slow_executor", [] { return agents::slow_executor(); }},
        {"masked_overbidder", [] { return agents::masked_overbidder(); }},
    };
    const auto it = kZoo.find(name);
    if (it == kZoo.end()) {
        std::fprintf(stderr, "unknown strategy '%s'\n", name.c_str());
        std::exit(2);
    }
    return it->second();
}

std::vector<double> parse_doubles(const std::string& csv) {
    std::vector<double> out;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string token =
            csv.substr(start, comma == std::string::npos ? csv.size() - start
                                                         : comma - start);
        if (!token.empty()) out.push_back(std::strtod(token.c_str(), nullptr));
        if (comma == std::string::npos) break;
        start = comma + 1;
    }
    return out;
}

[[noreturn]] void usage() {
    std::fprintf(
        stderr,
        "usage: dlsbl_cli [--kind fe|nfe] [--z Z] [--w w1,w2,...]\n"
        "                 [--strategy i:name]... [--blocks N] [--latency L]\n"
        "                 [--fine F] [--seed S] [--trace]\n"
        "                 [--churn-plan SPEC]  fault-injection plan, e.g.\n"
        "                                      'crash:P3@0.1;restart:P3@0.5;\n"
        "                                      loss:P2@0.2-0.4;delay:P1@0-0.1+0.05'\n"
        "                 [--repeat N]         run N seed-derived instances\n"
        "                 [--jobs N]           executor workers (or DLSBL_JOBS)\n"
        "                 [--log-level off|error|warn|info|debug]\n"
        "                 [--jsonl-out FILE]   structured JSONL event log\n"
        "                 [--trace-out FILE]   Chrome trace-event JSON\n"
        "                                      (open in chrome://tracing or Perfetto)\n"
        "                 [--metrics-out FILE] Prometheus-style metrics dump\n"
        "                 [--metrics-port P]   serve /metrics, /healthz, /runs on\n"
        "                                      127.0.0.1:P while running (0 = pick\n"
        "                                      an ephemeral port, printed on stderr)\n"
        "                 [--profile]          wall-clock scope profile on stderr\n");
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
    protocol::ProtocolConfig config;
    config.kind = dlt::NetworkKind::kNcpFE;
    config.z = 0.25;
    config.true_w = {1.0, 2.0, 1.5, 0.8};
    config.block_count = 1200;
    config.signature_algorithm = crypto::SignatureAlgorithm::kFast;
    bool show_trace = false;
    bool profile = false;
    bool metrics_port_set = false;
    long metrics_port = 0;
    std::size_t repeat = 1;
    std::size_t jobs = exec::RunExecutor::jobs_from_args(0, nullptr, 1);
    std::string jsonl_out, trace_out, metrics_out;
    std::vector<std::pair<std::size_t, std::string>> strategy_args;

    obs::install_logger_bridge();

    // Declarative flag table (bench::ArgSpec) — the same parser every bench
    // binary uses for its shared flags.
    bench::ArgSpec spec;
    spec.option("--kind", [&](const std::string& value) {
        if (value == "fe") {
            config.kind = dlt::NetworkKind::kNcpFE;
        } else if (value == "nfe") {
            config.kind = dlt::NetworkKind::kNcpNFE;
        } else {
            return false;
        }
        return true;
    });
    spec.option("--z", [&](const std::string& value) {
        config.z = std::strtod(value.c_str(), nullptr);
        return true;
    });
    spec.option("--w", [&](const std::string& value) {
        config.true_w = parse_doubles(value);
        return !config.true_w.empty();
    });
    spec.option("--strategy", [&](const std::string& value) {
        const std::size_t colon = value.find(':');
        if (colon == std::string::npos) return false;
        strategy_args.emplace_back(
            static_cast<std::size_t>(std::strtoul(value.c_str(), nullptr, 10)),
            value.substr(colon + 1));
        return true;
    });
    spec.option("--blocks", [&](const std::string& value) {
        config.block_count =
            static_cast<std::size_t>(std::strtoul(value.c_str(), nullptr, 10));
        return true;
    });
    spec.option("--latency", [&](const std::string& value) {
        config.control_latency = std::strtod(value.c_str(), nullptr);
        return true;
    });
    spec.option("--fine", [&](const std::string& value) {
        config.fine_policy.fixed_fine = std::strtod(value.c_str(), nullptr);
        return true;
    });
    spec.option("--seed", [&](const std::string& value) {
        config.seed = std::strtoull(value.c_str(), nullptr, 10);
        return true;
    });
    spec.option("--churn-plan", [&](const std::string& value) {
        const auto plan = protocol::ChurnPlan::parse(value);
        if (!plan) return false;
        config.churn_plan = *plan;
        return true;
    });
    spec.flag("--trace", [&] { show_trace = true; });
    spec.option("--repeat", [&](const std::string& value) {
        repeat = static_cast<std::size_t>(std::strtoul(value.c_str(), nullptr, 10));
        if (repeat == 0) repeat = 1;
        return true;
    });
    spec.option("--jobs", [&](const std::string& value) {
        jobs = static_cast<std::size_t>(std::strtoul(value.c_str(), nullptr, 10));
        return true;
    });
    spec.alias("-j", "--jobs");
    spec.option("--log-level", [&](const std::string& value) {
        util::LogLevel level;
        if (!obs::parse_log_level(value, level)) return false;
        obs::set_log_level(level);
        return true;
    });
    spec.option("--jsonl-out", [&](const std::string& value) {
        jsonl_out = value;
        return true;
    });
    spec.option("--trace-out", [&](const std::string& value) {
        trace_out = value;
        return true;
    });
    spec.option("--metrics-out", [&](const std::string& value) {
        metrics_out = value;
        return true;
    });
    spec.option("--metrics-port", [&](const std::string& value) {
        metrics_port_set = true;
        metrics_port = std::strtol(value.c_str(), nullptr, 10);
        return metrics_port >= 0 && metrics_port <= 65535;
    });
    spec.flag("--profile", [&] { profile = true; });
    spec.flag("--help", [] { usage(); });
    spec.alias("-h", "--help");
    if (!spec.scan_strict(argc, argv)) {
        std::fprintf(stderr, "%s\n", spec.error().c_str());
        usage();
    }

    config.strategies.assign(config.true_w.size(), agents::truthful());
    for (const auto& [index, name] : strategy_args) {
        if (index >= config.strategies.size()) {
            std::fprintf(stderr, "strategy index %zu out of range\n", index);
            return 2;
        }
        config.strategies[index] = strategy_by_name(name);
    }

    std::shared_ptr<obs::JsonlSink> jsonl_sink;
    if (!jsonl_out.empty()) {
        jsonl_sink = std::make_shared<obs::JsonlSink>(jsonl_out);
        if (!jsonl_sink->ok()) {
            std::fprintf(stderr, "cannot open '%s' for writing\n", jsonl_out.c_str());
            return 2;
        }
        obs::EventLog::instance().add_sink(jsonl_sink);
    }
    if (profile) obs::Profiler::instance().set_enabled(true);

    // All runs — even a single one — go through the executor so the CLI
    // exercises the same submission path as the sweeps. With --repeat N,
    // run i gets seed derive_seed(--seed, i); the trace/metrics artifacts
    // describe run 0 to keep their single-run meaning.
    // Live telemetry: serve /metrics, /healthz and /runs for the lifetime of
    // the batch. Ephemeral ports (--metrics-port 0) are printed so scrapers
    // can find them.
    std::unique_ptr<obs::MetricsExporter> exporter;
    if (metrics_port_set) {
        obs::ExporterOptions exporter_options;
        exporter_options.port = static_cast<std::uint16_t>(metrics_port);
        exporter = std::make_unique<obs::MetricsExporter>(exporter_options);
        if (!exporter->start()) {
            std::fprintf(stderr, "cannot bind metrics port %ld\n", metrics_port);
            return 2;
        }
        std::fprintf(stderr, "metrics: http://127.0.0.1:%u/metrics\n",
                     static_cast<unsigned>(exporter->port()));
        obs::RunManifest manifest;
        manifest.set("tool", "dlsbl_cli")
            .set("kind", dlt::to_string(config.kind))
            .set_uint("m", config.true_w.size())
            .set_uint("blocks", config.block_count)
            .set_uint("seed", config.seed)
            .set_uint("repeat", repeat);
        exporter->record_run_manifest("cli", manifest.to_json());
    }

    exec::ExecutorOptions exec_options;
    exec_options.jobs = jobs;
    exec_options.root_seed = config.seed;
    exec_options.exporter = exporter.get();
    exec::RunExecutor executor(exec_options);

    std::string trace_dump;
    const auto outcomes = executor.map(repeat, [&](exec::RunSlot& slot) {
        auto run_config = config;
        run_config.seed = (repeat == 1) ? config.seed : slot.seed();
        return protocol::run_protocol(
            run_config,
            [&](const protocol::RunInternals& internals) {
                // Fold the run's protocol counters and makespan histogram
                // into the slot: live scrapes label them per run, and the
                // executor's submission-order merge lands them in the
                // global registry deterministically.
                slot.metrics().merge_from(internals.context.metrics_registry());
                if (slot.index() != 0) return;
                if (show_trace) trace_dump = internals.trace().render();
                if (!trace_out.empty() &&
                    !obs::write_catapult_file(trace_out,
                                              internals.trace())) {
                    std::fprintf(stderr, "cannot open '%s' for writing\n",
                                 trace_out.c_str());
                }
                if (!metrics_out.empty()) {
                    std::ofstream out(metrics_out);
                    if (out) {
                        out << internals.context.metrics_registry().prometheus_text();
                    } else {
                        std::fprintf(stderr, "cannot open '%s' for writing\n",
                                     metrics_out.c_str());
                    }
                }
            });
    });
    obs::EventLog::instance().flush();

    const auto& outcome = outcomes.front();
    std::printf("kind=%s z=%.4g m=%zu blocks=%zu F=%.4g\n", dlt::to_string(config.kind),
                config.z, config.true_w.size(), config.block_count,
                outcome.fine_amount);
    std::printf("result: %s  makespan=%.6f  user_paid=%.6f  messages=%llu bytes=%llu\n",
                outcome.terminated_early
                    ? ("TERMINATED (" + outcome.termination_reason + ")").c_str()
                    : "settled",
                outcome.makespan, outcome.user_paid,
                static_cast<unsigned long long>(outcome.control_messages),
                static_cast<unsigned long long>(outcome.control_bytes));

    if (repeat == 1) {
        util::Table table({"proc", "strategy", "true w", "bid", "alpha", "payment",
                           "fines", "rewards", "utility"});
        table.set_precision(4);
        for (std::size_t i = 0; i < outcome.processors.size(); ++i) {
            const auto& p = outcome.processors[i];
            table.add_row({p.name, config.strategies[i].name,
                           util::Table::format_double(p.true_w, 4),
                           util::Table::format_double(p.bid, 4),
                           util::Table::format_double(p.alpha, 4),
                           util::Table::format_double(p.payment, 4),
                           util::Table::format_double(p.fines, 4),
                           util::Table::format_double(p.rewards, 4),
                           util::Table::format_double(p.utility(), 4)});
        }
        std::printf("%s", table.render().c_str());
    } else {
        util::Table table({"run", "seed", "result", "makespan", "user paid"});
        table.set_precision(6);
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const auto& o = outcomes[i];
            table.add_row({std::to_string(i),
                           std::to_string(util::derive_seed(config.seed, i)),
                           o.terminated_early ? o.termination_reason : "settled",
                           util::Table::format_double(o.makespan, 6),
                           util::Table::format_double(o.user_paid, 6)});
        }
        std::printf("%s", table.render().c_str());
    }
    if (show_trace) std::printf("\n--- event trace ---\n%s", trace_dump.c_str());
    if (profile) {
        std::fprintf(stderr, "\n--- wall-clock profile ---\n%s",
                     obs::Profiler::instance().report().c_str());
    }
    return 0;
}
