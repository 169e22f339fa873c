// Fixture: mutable-global triggers (analyzed under a fake src/ path).
// Never compiled.
#include <atomic>
#include <string>

int g_counter = 0;                       // mutable-global: = init
static double g_scale{1.5};              // mutable-global: brace init
std::string g_name;                      // mutable-global: Type name;
std::atomic<bool> g_flag{false};         // mutable-global: brace init
thread_local int t_slot = -1;            // mutable-global: thread_local

namespace fixture {
inline int g_nested = 7;                 // mutable-global: nested namespace
}  // namespace fixture
