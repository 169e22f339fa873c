#!/usr/bin/env bash
# tools/ci/check.sh — the one-command verification entry point:
#
#   configure -> build -> ctest (tier-1) -> dlsbl_lint -> clang-tidy* -> cppcheck*
#                                                          (*when on PATH)
#
# Static and dynamic analysis share this entry point: set DLSBL_SANITIZE to
# route the build through a sanitizer matrix instead of the default build,
# e.g.
#
#   DLSBL_SANITIZE=address,undefined tools/ci/check.sh   # ASan+UBSan build
#   DLSBL_SANITIZE=thread           tools/ci/check.sh    # TSan build
#
# (Every default build already runs the always-on asan./tsan. smoke suites;
# the env var sanitizes the *whole* tree, which is slower but complete.)
#
# Environment knobs:
#   BUILD_DIR        build directory (default: build, or build-<sanitize>)
#   DLSBL_SANITIZE   forwarded to -DDLSBL_SANITIZE=... (see above)
#   CHECK_JOBS       parallelism (default: nproc)
#   CLANG_TIDY=0     skip clang-tidy even if installed
#   CPPCHECK=0       skip cppcheck even if installed
#
# Exit: non-zero if configure, build, ctest, or dlsbl_lint fail. clang-tidy
# and cppcheck results are reported but advisory (their availability varies
# across machines; the gating analyses are compiled into the tree).
set -euo pipefail

cd "$(dirname "$0")/../.."
REPO_ROOT=$(pwd)
JOBS=${CHECK_JOBS:-$(nproc 2>/dev/null || echo 4)}

SANITIZE=${DLSBL_SANITIZE:-}
if [[ -n "$SANITIZE" ]]; then
    BUILD_DIR=${BUILD_DIR:-build-${SANITIZE//,/-}}
else
    BUILD_DIR=${BUILD_DIR:-build}
fi

step() { printf '\n=== %s ===\n' "$*"; }

step "configure ($BUILD_DIR${SANITIZE:+, sanitize=$SANITIZE})"
cmake -B "$BUILD_DIR" -S . \
    ${SANITIZE:+-DDLSBL_SANITIZE="$SANITIZE"} \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON

step "build (-j$JOBS)"
cmake --build "$BUILD_DIR" -j "$JOBS"

step "ctest"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

step "churn + property suites"
# The full ctest above already ran these (they are ordinary registered
# tests); re-running them as named stages keeps the fault-injection and
# truthfulness-under-churn verdicts legible in CI logs. The property label
# selects every randomized sweep; the churn scenario suite pins the SHA-256
# digest of every artifact for each fault plan, including under the
# asan./tsan. sanitized variants built above.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(ChurnScenarios|asan\..*ChurnScenarios|tsan\..*ChurnScenarios)'
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L property

step "codec fuzz (flat wire smoke)"
# The full ctest above already ran the whole fuzz suite; this named stage
# re-runs the flat-codec slice (legacy/flat accept-set parity, encoder
# byte-identity, mutation and transplant rejection) so a wire-format break
# is legible in CI logs on its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(FuzzFlatCodec|asan\..*FuzzFlatCodec)'

step "bench-regress (perf gate)"
# The full ctest above already ran the bench-smoke suites (writing fresh
# BENCH_*.json into the build dir) and the bench_regress gate; re-running
# the label here surfaces the tracker's report in its own stage so a perf
# regression is legible in CI logs, not buried in the ctest summary.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L bench-regress

step "dlsbl_lint"
"$BUILD_DIR/tools/lint/dlsbl_lint" --root "$REPO_ROOT" \
    src tests bench examples tools

step "dlsbl_analyze (whole-program semantic passes)"
# Gating like dlsbl_lint, but flow-aware: determinism taint through the
# call graph, lock-order cycles, dispatch exhaustiveness, the layering DAG.
# The TU list comes from the compile database written above, closed over
# quoted includes; --timings prints a per-pass wall-clock breakdown and the
# SARIF artifact lands next to the other build outputs. The analyzer must
# stay interactive: assert the whole run fits the 10s budget (same bound
# the analyze.tree ctest enforces via TIMEOUT).
ANALYZE_START=$(date +%s)
"$BUILD_DIR/tools/analyze/dlsbl_analyze" --root "$REPO_ROOT" \
    --compile-db "$BUILD_DIR/compile_commands.json" \
    --timings \
    --sarif-out "$BUILD_DIR/dlsbl_analyze.sarif" \
    --json-out "$BUILD_DIR/dlsbl_analyze.json" \
    src
ANALYZE_ELAPSED=$(( $(date +%s) - ANALYZE_START ))
echo "dlsbl_analyze: ${ANALYZE_ELAPSED}s total (budget 10s)"
if [[ "$ANALYZE_ELAPSED" -ge 10 ]]; then
    echo "dlsbl_analyze: exceeded the 10s runtime budget" >&2
    exit 1
fi

if [[ "${CLANG_TIDY:-1}" != 0 ]] && command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy (advisory)"
    # Library sources only: bench/test TUs drown the output in gtest macro
    # expansion. .clang-tidy at the repo root carries the curated profile.
    find src tools/lint -name '*.cpp' -print0 |
        xargs -0 -P "$JOBS" -n 8 clang-tidy -p "$BUILD_DIR" --quiet ||
        echo "clang-tidy: findings above are advisory"
else
    step "clang-tidy: not found or disabled — skipped"
fi

if [[ "${CPPCHECK:-1}" != 0 ]] && command -v cppcheck >/dev/null 2>&1; then
    step "cppcheck (advisory)"
    cppcheck --enable=warning,performance,portability \
        --suppressions-list=tools/ci/cppcheck.suppress \
        --inline-suppr --quiet --std=c++20 \
        -I src src tools/lint ||
        echo "cppcheck: findings above are advisory"
else
    step "cppcheck: not found or disabled — skipped"
fi

step "check.sh: all gating stages passed"
