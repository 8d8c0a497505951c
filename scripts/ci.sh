#!/usr/bin/env bash
#
# CI entry point, split into selectable stages so the workflow can
# fan them over a parallel job matrix (.github/workflows/ci.yml)
# while one local `scripts/ci.sh` still runs the whole gate.
#
#   tsan      Debug + ThreadSanitizer, running only the
#             concurrency-sensitive tests (thread pool, parallel
#             runner, alone-IPC cache, and the telemetry
#             differentials whose workers write traces, artifacts
#             and metric shards concurrently).  A data race
#             anywhere in the parallel experiment path fails this
#             stage.
#   release   Release build, full test suite (the tier-1 gate).
#   perf      Perf smoke: bench/kernel_hotpath --quick against the
#             checked-in baseline
#             (bench/baselines/kernel_quick.json); fails on a >2x
#             ns/access regression on any run of the matrix.  The
#             loose factor absorbs machine-to-machine and CI-noise
#             variance while still catching algorithmic
#             regressions of the simulation kernel.  Each run's
#             exact work counts (accesses, swaps, events, scheduler
#             entries) must equal the baseline's.  Then a 3-second
#             perfbench/run.py run per benchmark workload (every
#             PROFESS_* variable unset: perfbench refuses them) must
#             report "correct": true, i.e. every job's simulated
#             result equals its pinned digest.
#   telemetry Telemetry overhead: kernel_hotpath --quick twice
#             more, telemetry off and fully on (--trace
#             --telemetry-out --metrics-out, which also turns on
#             latency-span attribution).  Off must stay within 2%
#             of the checked-in baseline on the aggregate
#             ns/access (the disabled instrumentation is one
#             predictable branch per site); on must stay within
#             15% of the off run measured back-to-back on the same
#             machine.  The on run's OpenMetrics exposition is
#             then diffed against bench/baselines/kernel_quick.prom
#             (scripts/metrics_diff.py) with generous thresholds —
#             a metric-level regression tripwire next to the
#             wall-clock one.  The generated manifests/JSONL/
#             chrome traces and .prom expositions are uploaded as
#             CI artifacts (see .github/workflows/ci.yml).
#   analyze   Correctness tooling: the determinism/hot-path
#             analyzer (scripts/profess_analyze — absorbs the old
#             domain linter; zero findings required, SARIF written
#             for code-scanning upload), clang-format in
#             check-only mode and clang-tidy over src/.  The clang
#             tools are pinned in CI (see ci.yml) and a missing
#             binary there is a hard failure — a silently skipped
#             static-analysis stage is how rot ships; on developer
#             machines without the tools the checks skip with a
#             notice.
#   ubsan     Full test suite as Debug + UBSan + ASan with
#             PROFESS_AUDIT=ON and PROFESS_DETSAN=ON so every
#             invariant-audit hook and determinism digest runs
#             under both sanitizers.
#   scenario  Fault-injection suite: the scenario tests
#             (swap-abort storms, quiesce audits, RSM/MDM pinning,
#             fault-schedule determinism) re-run on the ubsan
#             build.  A dedicated stage so a scenario regression
#             is named in the CI log even when the full ubsan
#             sweep also catches it, and so the storm paths are
#             exercised with every invariant audit compiled in and
#             sanitized.
#   detsan    DetSan differential: kernel_hotpath --quick on the
#             DetSan build replays the whole matrix on 8 pool
#             workers and cross-checks every run's
#             event/extraction/epoch/final-stat digests against
#             the measured serial pass — a digest mismatch
#             (scheduling leaking into simulation state) aborts.
#   sweep     Resumable-sweep differential (nightly): run the
#             small bench/sweeps/nightly.sweep grid uninterrupted,
#             then interrupted (--max-runs) + resumed, and require
#             the journal and merged exposition byte-identical;
#             cross-check the Python shard merger
#             (scripts/metrics_merge.py) against the C++ merge
#             byte-for-byte; diff the exposition against the
#             checked-in baseline
#             (bench/baselines/sweep_nightly.prom).
#
# When ccache is installed every cmake build routes through it
# (compiler-launcher), and the stats are printed at the end; the
# workflow persists the cache directory across runs keyed on
# compiler + build inputs.
#
# Usage: scripts/ci.sh [jobs] [--stages a,b,c]
#   default stages: tsan,release,perf,telemetry,analyze,ubsan,
#                   scenario,detsan  (sweep is nightly/opt-in)

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="$(nproc)"
STAGES="tsan,release,perf,telemetry,analyze,ubsan,scenario,detsan"
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

UBSAN_READY=
ensure_ubsan() {
    if [ -z "$UBSAN_READY" ]; then
        cmake_configure -B build-ubsan -S . \
            -DCMAKE_BUILD_TYPE=Debug \
            -DPROFESS_UBSAN=ON -DPROFESS_ASAN=ON \
            -DPROFESS_AUDIT=ON -DPROFESS_DETSAN=ON
        cmake --build build-ubsan -j "$JOBS"
        UBSAN_READY=1
    fi
}

stage_tsan() {
    cmake_configure -B build-tsan -S . \
        -DCMAKE_BUILD_TYPE=Debug \
        -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
        -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
    cmake --build build-tsan -j "$JOBS" \
        --target test_parallel_runner test_telemetry
    TSAN_OPTIONS="halt_on_error=1" \
        ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
            -R 'ThreadPool|AloneCache|Differential|ParallelRunner|RunOptions'
}

stage_release() {
    ensure_release
    ctest --test-dir build --output-on-failure -j "$JOBS"
}

stage_perf() {
    ensure_release
    cmake --build build -j "$JOBS" --target kernel_hotpath
    ./build/bench/kernel_hotpath --quick --label ci-smoke \
        --out build/kernel_smoke.json
    python3 scripts/bench_report.py compare \
        bench/baselines/kernel_quick.json build/kernel_smoke.json \
        --max-regression 2.0
    # Time is gated loosely; the work counts (accesses, swaps,
    # events, scheduler entries, peak pending events, pool
    # high-water marks) must match the baseline exactly.
    python3 scripts/bench_report.py counts \
        bench/baselines/kernel_quick.json build/kernel_smoke.json
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
    cmake --build build -j "$JOBS" --target kernel_hotpath
    # The 2%/15% bounds are far tighter than single-shot noise on a
    # shared CI box, so each mode runs three times (interleaved, to
    # balance load drift) and the gate uses the best run of each —
    # min total ns/access, the noise-robust estimator.
    for i in 1 2 3; do
        ./build/bench/kernel_hotpath --quick --label telemetry-off \
            --out "build/kernel_telemetry_off.$i.json"
        ./build/bench/kernel_hotpath --quick --label telemetry-on \
            --trace --telemetry-out build/telemetry-artifacts \
            --metrics-out "build/kernel_telemetry_on.$i.prom" \
            --out "build/kernel_telemetry_on.$i.json"
    done
    python3 scripts/bench_report.py best \
        build/kernel_telemetry_off.[123].json \
        --out build/kernel_telemetry_off.json
    python3 scripts/bench_report.py best \
        build/kernel_telemetry_on.[123].json \
        --out build/kernel_telemetry_on.json
    # Disabled telemetry must cost nothing measurable: aggregate
    # ns/access within 2% of the checked-in baseline.
    python3 scripts/bench_report.py compare \
        bench/baselines/kernel_quick.json \
        build/kernel_telemetry_off.json \
        --max-regression 1.02 --total
    # Full tracing + sampling + artifact output: within 15% of the
    # off run measured back-to-back on this machine.
    python3 scripts/bench_report.py compare \
        build/kernel_telemetry_off.json \
        build/kernel_telemetry_on.json \
        --max-regression 1.15 --total
    # Cross-link the on-run trajectory point to its manifests.
    python3 scripts/bench_report.py show \
        build/kernel_telemetry_on.json \
        --with-telemetry build/telemetry-artifacts
    # Metric-level tripwire: the exposition holds only
    # deterministic simulation state (counters, probes, latency
    # histograms — no wall clock), so every on-run .prom of this
    # machine is identical; run 1 stands in for all three.
    # Thresholds are generous — both bounds must be exceeded to
    # fail — and --ignore-missing keeps newly added metrics from
    # failing CI before the baseline is regenerated.  The
    # exact-match guarantees live in tests/test_metrics.cc.
    python3 scripts/metrics_diff.py \
        bench/baselines/kernel_quick.prom \
        build/kernel_telemetry_on.1.prom \
        --rel-threshold 0.5 --abs-threshold 1e-6 \
        --ignore-missing --require-eof --quiet
}

stage_analyze() {
    # Determinism & hot-path analyzer: zero findings required.  The
    # SARIF report is uploaded to code scanning by ci.yml.
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
    # journal run under both sanitizers here and feed the detsan
    # differential.
    ensure_ubsan
    UBSAN_OPTIONS="print_stacktrace=1" \
        ctest --test-dir build-ubsan --output-on-failure -j "$JOBS"
}

stage_scenario() {
    # Reuses the ubsan build: PROFESS_AUDIT=ON means every quiesce
    # audit, rollback invariant and ST/STC structural check
    # actually executes under both sanitizers while faults are
    # being injected.
    ensure_ubsan
    UBSAN_OPTIONS="print_stacktrace=1" \
        ctest --test-dir build-ubsan --output-on-failure \
            -j "$JOBS" -R 'Scenario'
}

stage_detsan() {
    # The serial measured pass journals one digest set per run
    # identity; the verification pass replays the same matrix on 8
    # pool workers and cross-checks in-process.  Any divergence —
    # event count, (when, seq) extraction order, epoch trajectory,
    # final statistics — is a fatal digest mismatch.
    ensure_ubsan
    cmake --build build-ubsan -j "$JOBS" --target kernel_hotpath
    ./build-ubsan/bench/kernel_hotpath --quick --jobs 8 \
        --label detsan-diff --out build-ubsan/kernel_detsan.json
}

stage_sweep() {
    ensure_release
    cmake --build build -j "$JOBS" --target profess_sweep
    SPEC=bench/sweeps/nightly.sweep

    echo "    sweep-a: uninterrupted"
    ./build/bench/profess_sweep --spec "$SPEC" \
        --out build/sweep-a --jobs "$JOBS" --fresh --no-progress

    echo "    sweep-b: interrupted (--max-runs 3) + resumed"
    set +e
    ./build/bench/profess_sweep --spec "$SPEC" \
        --out build/sweep-b --jobs "$JOBS" --max-runs 3 --fresh \
        --no-progress
    rc=$?
    set -e
    if [ "$rc" -ne 75 ]; then
        echo "    ERROR: interrupted sweep exited $rc, expected 75" \
            >&2
        exit 1
    fi
    ./build/bench/profess_sweep --spec "$SPEC" \
        --out build/sweep-b --jobs "$JOBS" --no-progress

    # The resumed sweep must be indistinguishable from the
    # uninterrupted one, byte for byte.
    cmp build/sweep-a/sweep.journal.jsonl \
        build/sweep-b/sweep.journal.jsonl
    cmp build/sweep-a/metrics.prom build/sweep-b/metrics.prom

    # The Python shard merger is a second, independent
    # implementation of the exposition writer; it must agree with
    # the C++ merge byte-for-byte.
    python3 scripts/metrics_merge.py build/sweep-a/metrics.prom.shards \
        -o build/sweep-a/metrics.merged.py.prom
    cmp build/sweep-a/metrics.prom build/sweep-a/metrics.merged.py.prom

    # Metric-level tripwire against the checked-in baseline, same
    # generous thresholds as the telemetry stage.
    python3 scripts/metrics_diff.py \
        bench/baselines/sweep_nightly.prom \
        build/sweep-a/metrics.prom \
        --rel-threshold 0.5 --abs-threshold 1e-6 \
        --ignore-missing --require-eof --quiet
}

IFS=',' read -r -a STAGE_LIST <<< "$STAGES"
TOTAL=${#STAGE_LIST[@]}
N=0
for stage in "${STAGE_LIST[@]}"; do
    N=$((N + 1))
    case "$stage" in
        tsan|release|perf|telemetry|analyze|ubsan|scenario|detsan|sweep)
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
