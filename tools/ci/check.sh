#!/usr/bin/env bash
# tools/ci/check.sh — the one-command verification entry point:
#
#   configure -> build -> ctest (tier-1) -> m = 2048 scale run -> dlsbl_analyze
#       -> clang-tidy* -> cppcheck* (*when on PATH) -> line count (report only)
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
# Exit: non-zero if configure, build, ctest, the scale run or dlsbl_analyze
# fail. clang-tidy and cppcheck results are reported but advisory (their
# availability varies across machines; the gating analyses are compiled into
# the tree).
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
# re-runs the flat-codec slice (pinned SHA-256 of every body-zoo encoding,
# canonical round trip: whatever a view accepts re-encodes to the same
# bytes, and every encoding is accepted by its view; mutation and
# transplant rejection) so a wire-format break is legible in CI logs on
# its own line.
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" \
    -R '(FuzzFlatCodec|asan\..*FuzzFlatCodec)'

step "bench-regress (perf gate)"
# The full ctest above already ran the bench-smoke suites (writing fresh
# BENCH_*.json into the build dir) and the bench_regress gate; re-running
# the label here surfaces the tracker's report in its own stage so a perf
# regression is legible in CI logs, not buried in the ctest summary.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L bench-regress

step "scale run (m = 2048)"
# One honest run at m = 2048, run to completion. A run is Theta(m^2)
# messages at O(1) bookkeeping each, a broadcast being one kernel event:
# about 4 s and 590 MB peak RSS on a 4-core host, most of it the 56-byte
# trace record of each of the ~4.2 M deliveries. A Theta(m^3) slip in bid
# intake or payments takes minutes there and trips the timeout. Sanitized
# builds run several times slower and get a longer budget. The --profile
# report's last line, the run's peak RSS, is printed for the record; it
# gates nothing.
SCALE_W=$(awk 'BEGIN { for (i = 0; i < 2048; ++i) printf "%s%.2f", (i ? "," : ""), 1 + 0.01 * i }')
SCALE_TIMEOUT=30
[[ -n "$SANITIZE" ]] && SCALE_TIMEOUT=300
SCALE_PROFILE="$BUILD_DIR/scale_profile.txt"
if ! timeout "$SCALE_TIMEOUT" "$BUILD_DIR/examples/dlsbl_cli" --w "$SCALE_W" --z 0.002 \
    --blocks 8192 --seed 42 --profile >/dev/null 2>"$SCALE_PROFILE"; then
    cat "$SCALE_PROFILE"
    exit 1
fi
grep '^peak_rss_mb ' "$SCALE_PROFILE"

step "dlsbl_analyze"
# The one static-analysis gate: per-file token rules, determinism taint
# through the call graph, lock-order cycles, dispatch exhaustiveness and
# the layering DAG over the whole tree. --timings prints a per-pass
# wall-clock breakdown (the 10s budget is the analyze.tree ctest TIMEOUT);
# the SARIF and JSON artifacts land next to the other build outputs.
"$BUILD_DIR/tools/analyze/dlsbl_analyze" --root "$REPO_ROOT" \
    --timings \
    --sarif-out "$BUILD_DIR/dlsbl_analyze.sarif" \
    --json-out "$BUILD_DIR/dlsbl_analyze.json" \
    src tests bench examples tools

if [[ "${CLANG_TIDY:-1}" != 0 ]] && command -v clang-tidy >/dev/null 2>&1; then
    step "clang-tidy (advisory)"
    # Library and tool sources only: bench/test TUs drown the output in gtest macro
    # expansion. .clang-tidy at the repo root carries the curated profile.
    find src tools -name '*.cpp' -print0 |
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
        -I src -I tools src tools ||
        echo "cppcheck: findings above are advisory"
else
    step "cppcheck: not found or disabled — skipped"
fi

step "line count (report only)"
# The size the ROADMAP tracks: *.cpp + *.hpp lines under src/ and tools/.
# Printed for the record; it gates nothing.
find src tools \( -name '*.cpp' -o -name '*.hpp' \) -print0 |
    xargs -0 cat | wc -l | awk '{ print "src/ + tools/ *.cpp + *.hpp lines: " $1 }'

step "check.sh: all gating stages passed"
