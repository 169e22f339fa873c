#include "sim/kernel.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

namespace dlsbl::sim {
namespace {

TEST(Kernel, RunsEventsInTimeOrder) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(3.0, [&] { order.push_back(3); });
    sim.schedule_at(1.0, [&] { order.push_back(1); });
    sim.schedule_at(2.0, [&] { order.push_back(2); });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Kernel, TiesBreakByScheduleOrder) {
    Simulator sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.schedule_at(1.0, [&, i] { order.push_back(i); });
    }
    sim.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Kernel, NestedScheduling) {
    Simulator sim;
    std::vector<double> times;
    sim.schedule_at(1.0, [&] {
        times.push_back(sim.now());
        sim.schedule_after(0.5, [&] { times.push_back(sim.now()); });
    });
    sim.run();
    ASSERT_EQ(times.size(), 2u);
    EXPECT_DOUBLE_EQ(times[0], 1.0);
    EXPECT_DOUBLE_EQ(times[1], 1.5);
}

TEST(Kernel, ZeroDelayFiresAfterCurrentEvent) {
    Simulator sim;
    std::vector<int> order;
    sim.schedule_at(1.0, [&] {
        order.push_back(1);
        sim.schedule_after(0.0, [&] { order.push_back(3); });
        order.push_back(2);
    });
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Kernel, RejectsPastAndInvalid) {
    Simulator sim;
    sim.schedule_at(5.0, [] {});
    sim.run();
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_at(1.0 / 0.0, [] {}), std::invalid_argument);
    EXPECT_THROW(sim.schedule_at(6.0, nullptr), std::invalid_argument);
}

TEST(Kernel, StepReturnsFalseWhenDrained) {
    Simulator sim;
    sim.schedule_at(0.0, [] {});
    EXPECT_TRUE(sim.step());
    EXPECT_FALSE(sim.step());
}

TEST(Kernel, RunawayGuardThrows) {
    Simulator sim;
    // A self-perpetuating event chain trips the budget.
    std::function<void()> loop = [&] { sim.schedule_after(0.001, loop); };
    sim.schedule_after(0.0, loop);
    EXPECT_THROW(sim.run(1000), std::runtime_error);
}

TEST(Kernel, EventsFiredCounts) {
    Simulator sim;
    for (int i = 0; i < 5; ++i) sim.schedule_at(static_cast<double>(i), [] {});
    sim.run();
    EXPECT_EQ(sim.events_fired(), 5u);
    EXPECT_EQ(sim.pending(), 0u);
}

// A capture that counts how often it is copied (moves are free).
struct CopyCounter {
    explicit CopyCounter(int& copies) : copies(&copies) {}
    CopyCounter(const CopyCounter& other) : copies(other.copies) { ++*copies; }
    CopyCounter(CopyCounter&&) noexcept = default;
    CopyCounter& operator=(const CopyCounter& other) {
        copies = other.copies;
        ++*copies;
        return *this;
    }
    CopyCounter& operator=(CopyCounter&&) noexcept = default;
    ~CopyCounter() = default;
    int* copies;
};

TEST(Kernel, StepMovesTheCallbackOut) {
    Simulator sim;
    int copies = 0;
    int fired = 0;
    // Enough events that the heap's storage grows and reorders several times.
    for (int i = 0; i < 100; ++i) {
        sim.schedule_at(static_cast<double>(100 - i),
                        [counter = CopyCounter(copies), &fired] {
                            (void)counter;
                            ++fired;
                        });
    }
    sim.run();
    EXPECT_EQ(fired, 100);
    EXPECT_EQ(copies, 0);
}

}  // namespace
}  // namespace dlsbl::sim
