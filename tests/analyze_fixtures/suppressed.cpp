// Fixture: inline DLSBL_LINT_ALLOW suppression forms. Every violation in
// this file carries a marker, so it must analyze clean. Never compiled.
#include <cstdlib>

int knob() {
    // trailing-comment form, same line:
    const char* env = std::getenv("KNOB");  // DLSBL_LINT_ALLOW(determinism)

    // standalone-comment form, applies to the next line:
    // DLSBL_LINT_ALLOW(determinism)
    const char* env2 = std::getenv("KNOB2");

    // multi-rule marker:
    // DLSBL_LINT_ALLOW(determinism,float-equality)
    bool odd = (std::atof(std::getenv("X")) == 1.5);

    return (env != nullptr) + (env2 != nullptr) + odd;
}
