#!/usr/bin/env bash
#
# CI entry point, split into selectable stages so the workflow can
# fan them over a parallel job matrix (.github/workflows/ci.yml)
# while one local `scripts/ci.sh` still runs the whole gate.
#
#   tsan      Debug + ThreadSanitizer, running only the
#             concurrency-sensitive tests (the ParallelRunner
#             fan-out, alone-IPC cache, the telemetry differentials
#             whose workers write traces, artifacts and metric
#             shards concurrently, and the sweep driver's journal
#             appends from its workers).  A data race or a
#             lock-order inversion (TSan's potential-deadlock
#             report; there is no static lock-order rule) anywhere
#             in the parallel experiment path fails this stage.
#   release   Release build, full test suite (the tier-1 gate).
#             Besides the unit tests, ctest pins the quick kernel
#             matrix's exact work counts and final-registry digests
#             (KernelDeterminism.QuickMatrixWorkAndRegistryPinned),
#             runs the resumable-sweep differential on
#             bench/sweeps/nightly.sweep
#             (profess_sweep_resume_differential) and the allocation
#             gate (tests/test_alloc.cc: no host allocation after
#             warm-up, per built-in policy on one single-core and
#             one quad-core mix).
#   figures   The figure set at default size, the one command that
#             regenerates every figure and table: each spec under
#             bench/sweeps/ (but the test grid nightly.sweep) through
#             profess_sweep, and the three figure binaries that are
#             not specs.  The set runs at --jobs 1 and at --jobs 4,
#             and each report (stdout) must be byte-identical
#             between the two.  Prints each pass's CPU-seconds
#             (user + sys); the reports stay in build/figures/.
#   perf      A 3-second perfbench/run.py run per benchmark workload
#             (every PROFESS_* variable unset: perfbench refuses
#             them) must report "correct": true, i.e. every job's
#             simulated result equals its pinned digest.
#   telemetry Telemetry overhead: bench/telemetry_overhead times
#             the quick kernel matrix three times with telemetry
#             off and three times fully on (--trace
#             --telemetry-out --metrics-out, which also turns on
#             latency-span attribution), interleaved.  The best
#             "on" total ns/access must stay within 15% of the best
#             "off" one, both measured on this machine.  The
#             generated manifests/JSONL/chrome traces and .prom
#             expositions are uploaded as CI artifacts (see
#             .github/workflows/ci.yml).
#   analyze   Correctness tooling: scripts/profess_analyze, cut to
#             the rules no runtime gate covers (unordered iteration
#             into output, RNG, includes; zero findings required,
#             SARIF written for code-scanning upload), clang-format in
#             check-only mode and clang-tidy over src/.  The clang
#             tools are pinned in CI (see ci.yml) and a missing
#             binary there is a hard failure — a silently skipped
#             static-analysis stage is how rot ships; on developer
#             machines without the tools the checks skip with a
#             notice.
#   ubsan     Full test suite as Debug + UBSan + ASan with
#             PROFESS_AUDIT=ON and PROFESS_DETSAN=ON so every
#             invariant-audit hook and determinism digest runs
#             under both sanitizers.  The DetSan journal
#             cross-checks each run identity that Differential.*
#             and KernelDeterminism.* run at --jobs 1 and at
#             --jobs 8; a digest mismatch aborts.  This is the
#             determinism gate for pointer-keyed order, wall-clock
#             reads, cross-run statics and shared float sums.  The
#             scenario-intervention (Scenario*) tests run here too:
#             their RSM/MDM pins and quiesce audits run with every
#             invariant audit compiled in and sanitized.
#
# When ccache is installed every cmake build routes through it
# (compiler-launcher), and the stats are printed at the end; the
# workflow persists the cache directory across runs keyed on
# compiler + build inputs.
#
# Usage: scripts/ci.sh [jobs] [--stages a,b,c]
#   default stages: tsan,release,figures,perf,telemetry,analyze,ubsan

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc)"
STAGES="tsan,release,figures,perf,telemetry,analyze,ubsan"
while [ $# -gt 0 ]; do
    case "$1" in
        --stages)
            STAGES="$2"
            shift 2
            ;;
        --stages=*)
            STAGES="${1#--stages=}"
            shift
            ;;
        *)
            JOBS="$1"
            shift
            ;;
    esac
done

# Route compiles through ccache when available.  The array-guard
# expansion keeps `set -u` happy when the launcher is empty.
CCACHE_ARGS=()
if command -v ccache >/dev/null 2>&1; then
    CCACHE_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
    ccache --zero-stats >/dev/null
fi

cmake_configure() {
    cmake "$@" ${CCACHE_ARGS[@]+"${CCACHE_ARGS[@]}"}
}

# Cross-stage build dependencies, built at most once per invocation.
RELEASE_READY=
ensure_release() {
    if [ -z "$RELEASE_READY" ]; then
        cmake_configure -B build -S . -DCMAKE_BUILD_TYPE=Release
        cmake --build build -j "$JOBS"
        RELEASE_READY=1
    fi
}

stage_tsan() {
    cmake_configure -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "$JOBS" \
        --target test_parallel_runner test_telemetry test_sweep
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
            -R 'AloneCache|Differential|ParallelRunner|RunOptions|SweepDriver\.'
}

stage_release() {
    ensure_release
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

# figure_set JOBS DIR: every figure of the set at --jobs JOBS, each
# report in DIR/<name>.JOBS.txt; stderr goes to DIR/log.
figure_set() {
    local jobs=$1 out=$2 spec name
    for spec in bench/sweeps/*.sweep; do
        name="$(basename "$spec" .sweep)"
        [ "$name" = nightly ] && continue
        ./build/bench/profess_sweep --spec "$spec" \
            --out "$out/$name.$jobs" --fresh --no-progress \
            --jobs "$jobs" >"$out/$name.$jobs.txt" 2>>"$out/log" ||
            return 1
    done
    for name in table4_sampling_accuracy sens_capacity_ratio \
                ablation_profess; do
        "./build/bench/$name" --jobs "$jobs" >"$out/$name.$jobs.txt" \
            2>>"$out/log" || return 1
    done
}

stage_figures() {
    ensure_release
    local out=build/figures jobs cpu report
    rm -rf "$out"
    mkdir -p "$out"
    for jobs in 1 4; do
        if ! cpu="$( { TIMEFORMAT='%3U %3S'
                      time figure_set "$jobs" "$out"; } 2>&1 )"; then
            cat "$out/log" >&2
            exit 1
        fi
        awk -v jobs="$jobs" -v t="$cpu" 'BEGIN {
            split(t, a, " ")
            printf "    figure set at --jobs %s: %.1f CPU-s\n", jobs,
                a[1] + a[2]
        }'
    done
    for report in "$out"/*.1.txt; do
        cmp "$report" "${report%.1.txt}.4.txt"
    done
}

stage_perf() {
    # A host-path change that moves a simulated result fails here,
    # not only in a benchmark run: each workload's job digests must
    # equal the pinned ones (the last line's "correct").
    local w last
    for w in fig13_slice fig5_slice quad_write; do
        last="$(
            for v in $(compgen -e | grep '^PROFESS_' || true); do
                unset "$v"
            done
            python3 perfbench/run.py --workload "$w" --seconds 3 |
                tail -n 1
        )"
        if ! python3 -c 'import json, sys
sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' "$last"
        then
            echo "perfbench $w: simulated results moved: $last" >&2
            exit 1
        fi
    done
}

stage_telemetry() {
    ensure_release
    # The 15% bound is far tighter than single-shot noise on a
    # shared CI box, so each mode runs three times (interleaved, to
    # balance load drift) and the gate compares the best run of
    # each: min total ns/access, the noise-robust estimator.
    local i off=() on=()
    for i in 1 2 3; do
        off+=("$(./build/bench/telemetry_overhead)")
        on+=("$(./build/bench/telemetry_overhead --trace \
            --telemetry-out build/telemetry-artifacts \
            --metrics-out "build/telemetry_on.$i.prom")")
    done
    awk -v off="$(printf '%s\n' "${off[@]}" | sort -g | head -n 1)" \
        -v on="$(printf '%s\n' "${on[@]}" | sort -g | head -n 1)" \
        'BEGIN {
            printf "    telemetry off %.1f, on %.1f ns/access: %.3fx" \
                " (bound 1.15)\n", off, on, on / off
            exit !(on <= 1.15 * off)
        }'
}

stage_analyze() {
    # Static rules no runtime gate covers: zero findings required.
    # The SARIF report is uploaded to code scanning by ci.yml.
    mkdir -p build
    python3 scripts/profess_analyze --repo . \
        --sarif build/profess_analyze.sarif

    if command -v clang-format >/dev/null 2>&1; then
        # Check-only: report drift, never rewrite (.clang-format).
        git ls-files 'src/**/*.cc' 'src/**/*.hh' |
            xargs clang-format --dry-run -Werror
    elif [ -n "${CI:-}" ]; then
        # In CI the tool is pinned by the workflow; its absence
        # means the toolchain install silently broke.  Fail loudly
        # instead of shipping unformatted (and un-analyzed) code.
        echo "    ERROR: clang-format missing in CI" >&2
        exit 1
    else
        echo "    clang-format not installed; skipping format check"
    fi

    if command -v clang-tidy >/dev/null 2>&1; then
        # Results are cached on a stamp keyed by everything that
        # can change a finding (tidy config, sources, build
        # flags); CI persists build-tidy/.ctcache across runs
        # (actions/cache), so unchanged trees skip the analysis.
        TIDY_STAMP_DIR=build-tidy/.ctcache
        TIDY_HASH=$( (clang-tidy --version
                      cat .clang-tidy CMakeLists.txt
                      git ls-files 'src/**' | sort | xargs cat) |
                     sha256sum | cut -d' ' -f1)
        if [ -f "$TIDY_STAMP_DIR/$TIDY_HASH" ]; then
            echo "    clang-tidy cache hit ($TIDY_HASH); skipping"
        else
            # A dedicated compile database (any build type works;
            # tidy only needs the flags).  run-clang-tidy
            # parallelizes.
            cmake -B build-tidy -S . -DCMAKE_BUILD_TYPE=Debug \
                -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
            if command -v run-clang-tidy >/dev/null 2>&1; then
                run-clang-tidy -p build-tidy -j "$JOBS" -quiet \
                    "$(pwd)/src/.*"
            else
                git ls-files 'src/**/*.cc' |
                    xargs clang-tidy -p build-tidy --quiet
            fi
            mkdir -p "$TIDY_STAMP_DIR"
            touch "$TIDY_STAMP_DIR/$TIDY_HASH"
        fi
    elif [ -n "${CI:-}" ]; then
        echo "    ERROR: clang-tidy missing in CI" >&2
        exit 1
    else
        echo "    clang-tidy not installed; skipping static analysis"
    fi
}

stage_ubsan() {
    # Full suite under UBSan + ASan with every audit hook compiled
    # in.  This is the stage that actually executes the invariant
    # audits: Release keeps PROFESS_AUDIT off (bit-identical hot
    # path), Debug turns it on and sanitizes the checks themselves.
    # PROFESS_DETSAN rides along: the digest instrumentation and
    # journal run under both sanitizers here.
    cmake_configure -B build-ubsan -S . \
        -DCMAKE_BUILD_TYPE=Debug \
        -DPROFESS_UBSAN=ON -DPROFESS_ASAN=ON \
        -DPROFESS_AUDIT=ON -DPROFESS_DETSAN=ON
    cmake --build build-ubsan -j "$JOBS"
    UBSAN_OPTIONS="print_stacktrace=1" \
        ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
}

IFS=',' read -r -a STAGE_LIST <<< "$STAGES"
TOTAL=${#STAGE_LIST[@]}
N=0
for stage in "${STAGE_LIST[@]}"; do
    N=$((N + 1))
    case "$stage" in
        tsan|release|figures|perf|telemetry|analyze|ubsan)
            echo "==> [$N/$TOTAL] stage: $stage"
            "stage_$stage"
            ;;
        *)
            echo "unknown stage '$stage'" >&2
            exit 1
            ;;
    esac
done

if command -v ccache >/dev/null 2>&1; then
    echo "==> ccache stats"
    ccache --show-stats
fi

echo "==> CI passed ($STAGES)"
