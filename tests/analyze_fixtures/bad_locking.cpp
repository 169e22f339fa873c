// Fixture: manual-lock triggers. Never compiled.
#include <mutex>

std::mutex g_demo_mutex;  // (also a mutable global when analyzed under src/)

void critical() {
    g_demo_mutex.lock();     // manual-lock: lock()
    g_demo_mutex.unlock();   // manual-lock: unlock()
}

void maybe(std::mutex* m) {
    if (m->try_lock()) {     // manual-lock: try_lock()
        m->unlock();         // manual-lock: unlock()
    }
}
