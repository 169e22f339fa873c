// End-to-end protocol-run benchmark: whole DLS-BL-NCP runs through
// protocol::run_protocol, timed from outside, every outcome checked.
//
//   e2e_bench --workload honest_scale|signed_fleet|adversarial_zoo
//             [--seed N] [--seconds S] [--trace 0|1] [--tiny] [--tamper]
//
// --trace 0 times untraced runs and prints the end-to-end metrics;
// --trace 1 runs the workload's digest cycle untraced and then traced
// (profiler on, counting observer) and prints the per-layer metrics.
// Human-readable lines (RUN_MANIFEST, OUTCOME_DIGEST, METRIC, FAIL) come
// first; the last stdout line is the JSON result. perfbench/README.md
// documents every workload and metric.
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "crypto/sha256.hpp"
#include "obs/catapult.hpp"
#include "obs/event.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/profiler.hpp"
#include "protocol/detail/run_internals.hpp"
#include "protocol/runner.hpp"
#include "protocol/wire.hpp"
#include "sim/kernel.hpp"
#include "workloads.hpp"

namespace dlsbl::perfbench {
namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point start) {
    return std::chrono::duration<double>(SteadyClock::now() - start).count();
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Options {
    Workload workload = Workload::kHonestScale;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    bool tamper = false;  // self-test: corrupt the first outcome before its check
};

[[noreturn]] void usage(const std::string& error) {
    std::fprintf(stderr,
                 "e2e_bench: %s\nusage: e2e_bench --workload honest_scale|signed_fleet|"
                 "adversarial_zoo [--seed N] [--seconds S] [--trace 0|1] [--tiny] "
                 "[--tamper]\n",
                 error.c_str());
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + arg);
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                const auto w = parse_workload(value());
                if (!w) usage("unknown workload");
                options.workload = *w;
                have_workload = true;
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                if (!(options.seconds > 0.0)) usage("--seconds must be > 0");
            } else if (arg == "--trace") {
                const std::string v = value();
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                options.trace = v == "1";
            } else if (arg == "--tiny") {
                options.tiny = true;
            } else if (arg == "--tamper") {
                options.tamper = true;
            } else {
                usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + arg);
        }
    }
    if (!have_workload) usage("--workload is required");
    return options;
}

// ---- host and build record ----------------------------------------------------

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

// Timings from a non-optimised build are not comparable with anything.
bool optimised_build() {
#if defined(__OPTIMIZE__)
    const std::string type = obs::RunManifest::build_type();
    return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
    return false;
#endif
}

// perfbench/run.py starts the benchmark with address-space randomisation
// off, which keeps executions comparable; the manifest records whether it was.
bool aslr_disabled() {
    const int persona = personality(0xffffffff);
    return persona != -1 && (persona & ADDR_NO_RANDOMIZE) != 0;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- one run ------------------------------------------------------------------

struct RunRecord {
    protocol::ProtocolOutcome outcome;
    double wall_s = 0.0;            // run_protocol (+ obs emission when enabled)
    std::uint64_t delivered = 0;    // TraceKind::kMessageDelivered
    std::uint64_t trace_events = 0;
    std::uint64_t load_transfers = 0;
    crypto::Pki::CacheStats cache{};
    double catapult_s = 0.0;        // catapult export (inside run_protocol, via the observer)
    double jsonl_s = 0.0;           // JSONL sink writes (after run_protocol returns)
    std::uint64_t jsonl_lines = 0;
    std::uint64_t jsonl_bytes = 0;
};

// Captures the run's structured events in memory (no stderr sink involved)
// and writes them through a JsonlSink after the run, so the benchmark times
// its own calls into the sink.
class JsonlCapture {
 public:
    JsonlCapture() : sink_(stream_) {}

    obs::EventBuffer& buffer() noexcept { return buffer_; }

    // Writes and drops the buffered events; returns (lines, bytes).
    std::pair<std::uint64_t, std::uint64_t> drain() {
        for (const auto& event : buffer_.events()) sink_.emit(event);
        sink_.flush();
        const std::string text = stream_.str();
        const auto lines = static_cast<std::uint64_t>(std::count(text.begin(), text.end(), '\n'));
        stream_.str({});
        buffer_.clear();
        return {lines, text.size()};
    }

 private:
    std::ostringstream stream_;
    obs::JsonlSink sink_;
    obs::EventBuffer buffer_;
};

RunRecord run_once(const RunSpec& spec, bool obs_enabled, JsonlCapture& jsonl) {
    RunRecord record;
    const auto observer = [&](const protocol::RunInternals& internals) {
        const auto& events = internals.trace().events();
        record.trace_events = events.size();
        for (const auto& event : events) {
            record.delivered += event.kind == sim::TraceKind::kMessageDelivered ? 1 : 0;
        }
        record.load_transfers = internals.network_metrics().load_transfers();
        record.cache = internals.context.pki().verify_cache_stats();
        if (obs_enabled) {
            const auto start = SteadyClock::now();
            const std::string catapult = obs::catapult_from_trace(internals.trace());
            record.catapult_s = seconds_since(start);
        }
    };

    obs::EventBuffer* previous = nullptr;
    if (obs_enabled) previous = obs::EventLog::set_thread_buffer(&jsonl.buffer());
    const auto start = SteadyClock::now();
    record.outcome = protocol::run_protocol(spec.config, observer);
    if (obs_enabled) {
        obs::EventLog::set_thread_buffer(previous);
        const auto sink_start = SteadyClock::now();
        std::tie(record.jsonl_lines, record.jsonl_bytes) = jsonl.drain();
        record.jsonl_s = seconds_since(sink_start);
    }
    record.wall_s = seconds_since(start);
    return record;
}

// ---- per-layer probes timed from the benchmark --------------------------------

// Decodes the run's bid and payment bodies through the flat codec; returns
// seconds spent in the view parsers, or a negative value if a body fails to
// round-trip.
double time_wire_decode(const protocol::ProtocolOutcome& outcome) {
    std::vector<double> payments;
    for (const auto& p : outcome.processors) payments.push_back(p.payment);
    std::vector<util::Bytes> bids;
    std::vector<util::Bytes> payment_bodies;
    for (const auto& p : outcome.processors) {
        protocol::BidBody bid{1, p.name, p.bid};
        util::Bytes& b = bids.emplace_back(protocol::wire::encoded_size(bid));
        protocol::wire::FlatWriter bw(b);
        protocol::wire::encode(bid, bw);
        protocol::PaymentBody pay{1, p.name, payments};
        util::Bytes& q = payment_bodies.emplace_back(protocol::wire::encoded_size(pay));
        protocol::wire::FlatWriter qw(q);
        protocol::wire::encode(pay, qw);
        if (!bw.full() || !qw.full()) return -1.0;
    }

    std::vector<double> bids_seen;
    std::vector<double> payments_seen;
    bids_seen.reserve(bids.size());
    payments_seen.reserve(payments.size() * payment_bodies.size());
    bool ok = true;
    const auto start = SteadyClock::now();
    for (const auto& b : bids) {
        const auto view = protocol::wire::BidView::parse(b);
        ok = ok && view.has_value();
        if (view) bids_seen.push_back(view->bid);
    }
    for (const auto& q : payment_bodies) {
        auto view = protocol::wire::PaymentView::parse(q);
        ok = ok && view.has_value() && view->payment_count == payments.size();
        if (!view) continue;
        for (std::uint64_t k = 0; k < view->payment_count; ++k) {
            payments_seen.push_back(view->payments.f64());
        }
    }
    const double elapsed = seconds_since(start);

    // The codec moves doubles bit for bit, so the round trip is exact.
    for (std::size_t i = 0; ok && i < bids_seen.size(); ++i) {
        ok = bids_seen[i] == outcome.processors[i].bid;
    }
    for (std::size_t i = 0; ok && i < payments_seen.size(); ++i) {
        ok = payments_seen[i] == payments[i % payments.size()];
    }
    return ok ? elapsed : -1.0;
}

// Runs `events` events through a bare sim::Simulator with `width` pending at
// a time (a broadcast fan-out's worth); returns microseconds per event.
double time_sim_kernel(std::uint64_t events, std::size_t width) {
    if (events == 0) return 0.0;
    sim::Simulator simulator;
    std::uint64_t scheduled = 0;
    std::uint64_t fired = 0;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ull;
    std::function<void()> fire = [&] {
        ++fired;
        if (scheduled < events) {
            ++scheduled;
            lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
            simulator.schedule_after(static_cast<double>(lcg >> 40) * 1e-9, fire);
        }
    };
    const auto start = SteadyClock::now();
    for (; scheduled < std::min<std::uint64_t>(width, events); ++scheduled) {
        simulator.schedule_at(static_cast<double>(scheduled) * 1e-9, fire);
    }
    simulator.run(events + 1);
    const double elapsed = seconds_since(start);
    return fired == events ? elapsed * 1e6 / static_cast<double>(events) : -1.0;
}

// ---- metrics output -----------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) out += ", ";
        out += obs::json_escape(metrics[i].name) + ": {\"value\": " +
               obs::json_number(metrics[i].value) +
               ", \"unit\": " + obs::json_escape(metrics[i].unit) + "}";
    }
    return out + "}}";
}

void print_metric_line(const Metric& metric) {
    std::printf("METRIC %s %s %s\n", metric.name.c_str(),
                obs::json_number(metric.value).c_str(), metric.unit.c_str());
}

// ---- the benchmark ------------------------------------------------------------

class Bench {
 public:
    explicit Bench(Options options) : options_(options) {}

    int run() {
        setup();
        std::printf("RUN_MANIFEST %s\n", manifest().c_str());
        std::vector<Metric> metrics = options_.trace ? traced() : untraced();

        const std::string digest = finish_digest();
        std::printf("OUTCOME_DIGEST {\"workload\":\"%s\",\"seed\":%llu,\"runs\":%zu,"
                    "\"sha256\":\"%s\"}\n",
                    to_string(options_.workload),
                    static_cast<unsigned long long>(options_.seed), inputs_.cycle.size(),
                    digest.c_str());
        const Metric fail_ratio{"fail_ratio",
                                static_cast<double>(failed_) / static_cast<double>(attempted_),
                                "ratio"};
        for (const auto& metric : metrics) print_metric_line(metric);
        print_metric_line(fail_ratio);
        if (!tail_line_.empty()) std::printf("%s\n", tail_line_.c_str());

        bool correct = failed_ == 0 && digests_agree_;
        if (!optimised_build()) {
            std::fprintf(stderr, "e2e_bench: non-optimised build (%s); numbers are not valid\n",
                         obs::RunManifest::build_type());
            correct = false;
        }
        std::printf("%s\n", json_result(correct, attempted_, failed_, metrics).c_str());
        std::fflush(stdout);
        return 0;
    }

 private:
    // Input generation, config validation and one-time library set-up
    // (logger bridge, SHA-256 dispatch), from a process that has done none
    // of it yet. Returns its wall seconds.
    double cold_setup() {
        const auto start = SteadyClock::now();
        obs::install_logger_bridge();
        (void)crypto::sha256_backend();  // forces CPU dispatch
        inputs_ = make_inputs(options_.workload, options_.seed, options_.tiny);
        obs::set_log_level(inputs_.obs_enabled ? util::LogLevel::Debug : util::LogLevel::Off);
        return seconds_since(start);
    }

    // One cold set-up in a forked child, which shares none of this
    // process's later one-time state; returns the child's seconds.
    double cold_setup_in_child() {
        int fds[2];
        if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
        std::fflush(stdout);
        const pid_t pid = fork();
        if (pid < 0) throw std::runtime_error("fork failed");
        if (pid == 0) {
            close(fds[0]);
            try {
                const double seconds = cold_setup();
                _exit(write(fds[1], &seconds, sizeof seconds) == sizeof seconds ? 0 : 1);
            } catch (...) {
                _exit(1);
            }
        }
        close(fds[1]);
        double seconds = -1.0;
        const bool received = read(fds[0], &seconds, sizeof seconds) == sizeof seconds;
        close(fds[0]);
        int status = 0;
        waitpid(pid, &status, 0);
        if (!received || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            throw std::runtime_error("set-up probe failed");
        }
        return seconds;
    }

    // setup_s is the median of several cold set-ups: kChildSetups in forked
    // children, then this process's own, the last thing before the first
    // timed run. Each includes the one-time costs a single pass would see.
    void setup() {
        constexpr std::size_t kChildSetups = 24;
        std::vector<double> times;
        for (std::size_t i = 0; i < kChildSetups; ++i) times.push_back(cold_setup_in_child());
        times.push_back(cold_setup());
        setup_s_ = median(times);
    }

    // Run `index`'s spec, generated outside any timed window; the reference
    // stays valid until the next call.
    const RunSpec& spec_for(std::size_t index) {
        const std::size_t n = inputs_.cycle.size();
        if (index < n || !inputs_.fresh) return inputs_.cycle[index % n];
        fresh_spec_ = inputs_.fresh(index);
        return fresh_spec_;
    }

    std::string manifest() const {
        obs::RunManifest manifest;
        manifest.set("bench", "e2e_bench")
            .set("workload", to_string(options_.workload))
            .set_uint("seed", options_.seed)
            .set_num("seconds", options_.seconds)
            .set_uint("trace", options_.trace ? 1 : 0)
            .set_uint("tiny", options_.tiny ? 1 : 0)
            .set("compiler", DLSBL_BENCH_COMPILER)
            .set("bench_build_type", DLSBL_BENCH_BUILD_TYPE)
            .set("optimised", optimised_build() ? "yes" : "NO - numbers not valid")
            .set("cpu_model", cpu_model())
            .set_uint("nproc", std::thread::hardware_concurrency())
            .set("aslr", aslr_disabled() ? "off" : "on")
            .set("sha256_backend", std::string(crypto::sha256_backend()))
            .set_uint("cycle", inputs_.cycle.size())
            .set("fresh_runs", inputs_.fresh ? "yes" : "no")
            .set_uint("m", processors());
        return manifest.to_json();
    }

    // Every run of a workload has the same m.
    std::size_t processors() const { return inputs_.cycle.front().config.processor_count(); }

    // Checks one run, feeds the digest for the first cycle, counts failures.
    void account(std::size_t index, const RunSpec& spec, RunRecord& record,
                 crypto::Sha256* digest) {
        ++attempted_;
        if (options_.tamper && index == 0) {
            // Self-test hook: one processor now claims a fine it never paid.
            record.outcome.processors.front().fined = !record.outcome.processors.front().fined;
        }
        const std::string problem = check_outcome(spec, record.outcome);
        if (!problem.empty()) {
            ++failed_;
            std::printf("FAIL run=%zu %s: %s\n", index, spec.label.c_str(), problem.c_str());
        }
        if (digest != nullptr && index < inputs_.cycle.size()) {
            digest->update(render_outcome(record.outcome));
        }
    }

    std::string finish_digest() {
        const auto hex = [](const crypto::Digest& d) {
            std::ostringstream out;
            for (const auto byte : d) {
                out << std::hex << std::setw(2) << std::setfill('0') << static_cast<int>(byte);
            }
            return out.str();
        };
        const std::string untraced = hex(untraced_digest_.finalize());
        if (options_.trace) {
            const std::string traced = hex(traced_digest_.finalize());
            digests_agree_ = traced == untraced;
            if (!digests_agree_) {
                std::printf("FAIL traced digest %s != untraced digest %s\n", traced.c_str(),
                            untraced.c_str());
            }
        }
        return untraced;
    }

    // Times whole cycles until `seconds` have elapsed.
    std::vector<RunRecord> timed_loop(double seconds, bool traced, crypto::Sha256* digest) {
        obs::Profiler::instance().set_enabled(traced);
        const std::size_t cycle = inputs_.cycle.size();
        std::vector<RunRecord> records;
        const auto start = SteadyClock::now();
        for (std::size_t i = 0;; ++i) {
            if (i % cycle == 0 && i > 0 && seconds_since(start) >= seconds) break;
            const RunSpec& spec = spec_for(i);
            RunRecord record = run_once(spec, inputs_.obs_enabled, jsonl_);
            account(i, spec, record, digest);
            if (i + 1 == cycle) first_cycle_rss_mb_ = peak_rss_mb();
            // Only the first cycle's outcomes feed the probes; dropping the
            // rest keeps peak RSS independent of how many runs fit the time.
            if (i >= cycle) record.outcome.processors = {};
            records.push_back(std::move(record));
        }
        obs::Profiler::instance().set_enabled(false);
        return records;
    }

    // Every end-to-end time is taken per cycle and reported as the median
    // over cycles, so a burst of host noise moves one cycle, not the figure.
    std::vector<Metric> untraced() {
        const std::vector<RunRecord> records =
            timed_loop(options_.seconds, false, &untraced_digest_);
        const std::size_t cycle = inputs_.cycle.size();
        std::vector<double> walls;
        std::vector<double> cycle_rates;
        std::vector<double> cycle_p50s;
        std::vector<double> cycle_us_per_msg;
        for (std::size_t begin = 0; begin < records.size(); begin += cycle) {
            std::vector<double> cycle_walls;
            std::uint64_t cycle_msgs = 0;
            for (std::size_t i = begin; i < begin + cycle; ++i) {
                cycle_walls.push_back(records[i].wall_s);
                cycle_msgs += records[i].delivered;
            }
            double cycle_s = 0.0;
            for (const double wall : cycle_walls) cycle_s += wall;
            cycle_rates.push_back(static_cast<double>(cycle) / cycle_s);
            cycle_p50s.push_back(median(cycle_walls));
            cycle_us_per_msg.push_back(cycle_s * 1e6 / static_cast<double>(cycle_msgs));
            walls.insert(walls.end(), cycle_walls.begin(), cycle_walls.end());
        }
        tail_line_ = tail(walls);
        return {
            {"runs_per_s", median(cycle_rates), "1/s"},
            {"run_s.p50", median(cycle_p50s), "s"},
            {"us_per_delivered_msg", median(cycle_us_per_msg), "us"},
            {"peak_rss_mb", first_cycle_rss_mb_, "MB"},
            {"setup_s", setup_s_, "s"},
        };
    }

    // run_s.tail: the highest percentile with at least ten runs beyond it,
    // reported only when one execution holds >= 100 runs.
    static std::string tail(std::vector<double> walls) {
        const std::size_t n = walls.size();
        if (n < 100) return {};
        std::sort(walls.begin(), walls.end());
        for (const double pct : {99.9, 99.0, 95.0, 90.0}) {
            const double beyond = static_cast<double>(n) * (100.0 - pct) / 100.0;
            if (beyond >= 10.0) {
                const auto rank = static_cast<std::size_t>(
                    std::ceil(pct / 100.0 * static_cast<double>(n))) - 1;
                std::ostringstream line;
                line << "METRIC run_s.tail " << obs::json_number(walls[std::min(rank, n - 1)])
                     << " s p" << pct << " n=" << n;
                return line.str();
            }
        }
        return {};
    }

    std::vector<Metric> traced() {
        // Half the budget untraced (the overhead baseline and the reference
        // digest), half traced; each pass covers whole digest cycles.
        const std::vector<RunRecord> plain =
            timed_loop(options_.seconds / 2, false, &untraced_digest_);
        obs::Profiler& profiler = obs::Profiler::instance();
        profiler.reset();
        const std::vector<RunRecord> traced =
            timed_loop(options_.seconds / 2, true, &traced_digest_);

        const double runs = static_cast<double>(traced.size());
        const auto scope_s = [&](const char* name) {
            return static_cast<double>(profiler.total_ns(name)) * 1e-9 / runs;
        };
        const auto scope_calls = [&](const char* name) {
            return static_cast<double>(profiler.total_calls(name)) / runs;
        };

        // Probes timed from here, on the first cycle's runs.
        double decode_s = 0.0;
        double kernel_us = 0.0;
        std::size_t probes = 0;
        for (std::size_t i = 0; i < std::min(traced.size(), inputs_.cycle.size()); ++i) {
            const RunRecord& r = traced[i];
            const double d = time_wire_decode(r.outcome);
            const double k = time_sim_kernel(r.trace_events, processors());
            if (d < 0.0 || k < 0.0) {
                ++failed_;
                std::printf("FAIL probe run=%zu: wire or kernel probe mismatch\n", i);
            }
            decode_s += d;
            kernel_us += k;
            ++probes;
        }

        const double protocol_run_s = scope_s("protocol_run");
        double delivered = 0.0, msgs = 0.0, bytes = 0.0, events = 0.0, transfers = 0.0;
        double hits = 0.0, lookups = 0.0, catapult_s = 0.0, jsonl_s = 0.0;
        double lines = 0.0, jsonl_bytes = 0.0;
        std::map<std::string, double> phase_bytes;
        for (std::size_t i = 0; i < traced.size(); ++i) {
            const RunRecord& r = traced[i];
            delivered += static_cast<double>(r.delivered);
            msgs += static_cast<double>(r.outcome.control_messages);
            bytes += static_cast<double>(r.outcome.control_bytes);
            events += static_cast<double>(r.trace_events);
            transfers += static_cast<double>(r.load_transfers);
            hits += static_cast<double>(r.cache.hits);
            lookups += static_cast<double>(r.cache.hits + r.cache.misses);
            catapult_s += r.catapult_s;
            jsonl_s += r.jsonl_s;
            lines += static_cast<double>(r.jsonl_lines);
            jsonl_bytes += static_cast<double>(r.jsonl_bytes);
            for (const auto& [phase, b] : r.outcome.bytes_by_phase) {
                phase_bytes[phase] += static_cast<double>(b);
            }
        }

        const double keygen_s = scope_s("mss_keygen");
        const double sign_s = scope_s("mss_sign");
        const double verify_s = scope_s("mss_verify") + scope_s("mss_verify_batch");
        const double solve_s = scope_s("allocation_solve") + scope_s("allocation_solve_lp");
        const double solve_calls =
            scope_calls("allocation_solve") + scope_calls("allocation_solve_lp");
        // Of the obs export only the catapult part runs inside run_protocol
        // (from the observer); the JSONL writes happen after it returns.
        const double attributed = keygen_s + sign_s + verify_s + solve_s + catapult_s / runs;

        std::vector<double> plain_walls;
        for (const auto& r : plain) plain_walls.push_back(r.wall_s);
        std::vector<double> traced_walls;
        for (const auto& r : traced) traced_walls.push_back(r.wall_s);

        std::vector<Metric> out = {
            {"crypto.keygen_s", keygen_s, "s"},
            {"crypto.keygen_calls", scope_calls("mss_keygen"), "count"},
            {"crypto.sign_s", sign_s, "s"},
            {"crypto.sign_calls", scope_calls("mss_sign"), "count"},
            {"crypto.verify_s", verify_s, "s"},
            {"crypto.verify_calls", lookups / runs, "count"},
            {"crypto.verify_cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0, "ratio"},
            {"dlt.solve_s", solve_s, "s"},
            {"dlt.solve_calls", solve_calls, "count"},
            {"dlt.solve_calls_per_node", solve_calls / static_cast<double>(processors()), "ratio"},
            {"protocol.event_loop_s", scope_s("sim_event_loop"), "s"},
            {"protocol.unattributed_s", protocol_run_s - attributed, "s"},
            {"protocol.attributed_ratio", attributed / protocol_run_s, "ratio"},
            {"protocol.msgs_delivered", delivered / runs, "count"},
            {"protocol.control_msgs", msgs / runs, "count"},
            {"protocol.control_bytes", bytes / runs, "bytes"},
        };
        for (const auto phase : {protocol::Phase::kInit, protocol::Phase::kBidding,
                                 protocol::Phase::kAllocating, protocol::Phase::kProcessing,
                                 protocol::Phase::kPayments, protocol::Phase::kDone}) {
            const std::string name = protocol::to_string(phase);
            out.push_back({"protocol.bytes." + name, phase_bytes[name] / runs, "bytes"});
            phase_bytes.erase(name);
        }
        for (const auto& [phase, b] : phase_bytes) {
            std::printf("FAIL unexpected phase name in bytes_by_phase: %s\n", phase.c_str());
            ++failed_;
        }
        const double probe_n = static_cast<double>(std::max<std::size_t>(probes, 1));
        out.insert(out.end(), {
            {"wire.bytes_per_msg", msgs > 0 ? bytes / msgs : 0.0, "bytes"},
            {"wire.decode_s", decode_s / probe_n, "s"},
            {"sim.events", events / runs, "count"},
            {"sim.load_transfers", transfers / runs, "count"},
            {"sim.kernel_us_per_event", kernel_us / probe_n, "us"},
            {"obs.jsonl_lines", lines / runs, "count"},
            {"obs.jsonl_bytes", jsonl_bytes / runs, "bytes"},
            {"obs.export_s", (catapult_s + jsonl_s) / runs, "s"},
            {"obs.profiler_overhead_ratio", median(traced_walls) / median(plain_walls), "ratio"},
        });
        std::fprintf(stderr, "%s", profiler.report().c_str());
        return out;
    }

    Options options_;
    WorkloadInputs inputs_;
    RunSpec fresh_spec_;  // the current run's spec on fresh-run workloads
    double setup_s_ = 0.0;
    // Peak RSS once the first cycle has run: every run shape has been seen,
    // and the figure does not grow with the number of runs that fit the time.
    double first_cycle_rss_mb_ = 0.0;
    JsonlCapture jsonl_;
    crypto::Sha256 untraced_digest_;
    crypto::Sha256 traced_digest_;
    bool digests_agree_ = true;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::string tail_line_;
};

}  // namespace
}  // namespace dlsbl::perfbench

int main(int argc, char** argv) {
    try {
        dlsbl::perfbench::Bench bench(dlsbl::perfbench::parse_args(argc, argv));
        return bench.run();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "e2e_bench: %s\n", e.what());
        return 1;
    }
}
