// Fixture: every determinism-rule trigger. Analyzed by test_analyze.cpp
// under a fake src/ path; never compiled.
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <random>

int entropy() {
    std::random_device device;           // determinism: random_device
    int x = rand();                      // determinism: rand
    srand(42);                           // determinism: srand
    const char* home = std::getenv("HOME");  // determinism: getenv
    auto t0 = std::chrono::steady_clock::now();   // determinism: ::now()
    auto wall = std::time(nullptr);      // determinism: std::time(...)
    long ticks = clock();                // determinism: clock() call
    (void)t0;
    (void)home;
    return x + static_cast<int>(device()) + static_cast<int>(wall) +
           static_cast<int>(ticks);
}
