#include "exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace dlsbl::exec {

namespace {

// Mutex-protected per-worker deque. A lock per deque (not per pool) keeps
// contention at "one owner + occasional thief" levels, which is invisible
// next to a protocol run's cost; TSan-clean by construction, unlike a
// hand-rolled Chase-Lev deque.
class TaskDeque {
 public:
    void push_back(std::size_t task) {
        const std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(task);
    }

    // Owner end: pops the task dealt earliest, preserving submission-order
    // locality within a worker.
    bool pop_front(std::size_t& task) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty()) return false;
        task = tasks_.front();
        tasks_.pop_front();
        return true;
    }

    // Thief end.
    bool steal_back(std::size_t& task) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (tasks_.empty()) return false;
        task = tasks_.back();
        tasks_.pop_back();
        return true;
    }

 private:
    std::mutex mutex_;
    std::deque<std::size_t> tasks_;
};

}  // namespace

RunExecutor::RunExecutor(ExecutorOptions options) : options_(options) {
    jobs_ = options_.jobs;
    if (jobs_ == 0) {
        const unsigned hw = std::thread::hardware_concurrency();
        jobs_ = hw == 0 ? 1 : hw;
    }
}

std::size_t RunExecutor::jobs_from_args(int argc, char** argv, std::size_t fallback) {
    for (int i = 1; i < argc; ++i) {
        if ((std::strcmp(argv[i], "--jobs") == 0 || std::strcmp(argv[i], "-j") == 0) &&
            i + 1 < argc) {
            return static_cast<std::size_t>(std::strtoul(argv[i + 1], nullptr, 10));
        }
    }
    // Explicit operator knob for worker count; artifacts are byte-identical
    // at any value, so this cannot break replay (see dlsbl_analyze.facts).
    if (const char* env = std::getenv("DLSBL_JOBS"); env != nullptr && *env != '\0') {
        return static_cast<std::size_t>(std::strtoul(env, nullptr, 10));
    }
    return fallback;
}

void RunExecutor::run_tasks(std::size_t count,
                            const std::function<void(RunSlot&)>& body) {
    if (count == 0) return;

    // Per-task artifacts, indexed by submission order.
    std::vector<std::unique_ptr<RunSlot>> slots;
    slots.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        slots.push_back(
            std::make_unique<RunSlot>(i, util::derive_seed(options_.root_seed, i)));
    }
    std::vector<obs::EventBuffer> buffers(count);

    auto run_one = [&](std::size_t task) {
        obs::EventBuffer* capture = options_.capture_events ? &buffers[task] : nullptr;
        obs::EventBuffer* previous = obs::EventLog::set_thread_buffer(capture);
        const std::string run_name = "run-" + std::to_string(task);
        // Liveness stamps: a scrape that lands while the body is still
        // executing sees a per-run series even before the body publishes
        // anything into the slot registry. Gauges add under merge, so the
        // resets keep the global dlsbl_run_active at zero after the batch.
        auto& slot_metrics = slots[task]->metrics();
        slot_metrics.counter("dlsbl_run_started").inc();
        slot_metrics.gauge("dlsbl_run_active").set(1.0);
        if (options_.exporter != nullptr) {
            options_.exporter->attach_run(run_name, &slot_metrics);
        }
        try {
            body(*slots[task]);
        } catch (...) {
            slot_metrics.gauge("dlsbl_run_active").set(0.0);
            if (options_.exporter != nullptr) options_.exporter->detach_run(run_name);
            obs::EventLog::set_thread_buffer(previous);
            throw;
        }
        slot_metrics.gauge("dlsbl_run_active").set(0.0);
        if (options_.exporter != nullptr) options_.exporter->detach_run(run_name);
        obs::EventLog::set_thread_buffer(previous);
    };

    const std::size_t workers = std::min(jobs_, count);
    if (workers <= 1) {
        for (std::size_t i = 0; i < count; ++i) run_one(i);
    } else {
        // Deal tasks round-robin so every deque starts with an even share;
        // stealing rebalances whatever the deal got wrong.
        std::vector<TaskDeque> deques(workers);
        for (std::size_t i = 0; i < count; ++i) deques[i % workers].push_back(i);

        std::exception_ptr first_error;
        std::mutex error_mutex;
        auto worker_loop = [&](std::size_t me) {
            for (;;) {
                std::size_t task = 0;
                bool found = deques[me].pop_front(task);
                for (std::size_t k = 1; !found && k < workers; ++k) {
                    found = deques[(me + k) % workers].steal_back(task);
                }
                if (!found) return;  // every deque empty: batch is drained
                try {
                    run_one(task);
                } catch (...) {
                    const std::lock_guard<std::mutex> lock(error_mutex);
                    if (!first_error) first_error = std::current_exception();
                }
            }
        };

        std::vector<std::thread> threads;
        threads.reserve(workers - 1);
        for (std::size_t t = 1; t < workers; ++t) {
            threads.emplace_back(worker_loop, t);
        }
        worker_loop(0);
        for (auto& thread : threads) thread.join();
        if (first_error) std::rethrow_exception(first_error);
    }

    // Deterministic merge: replay events and fold per-run metrics into the
    // global registry in submission order, independent of which worker ran
    // what when.
    auto& log = obs::EventLog::instance();
    auto& global = obs::MetricsRegistry::global();
    for (std::size_t i = 0; i < count; ++i) {
        if (options_.capture_events) log.replay(buffers[i]);
        global.merge_from(slots[i]->metrics());
    }
}

}  // namespace dlsbl::exec
